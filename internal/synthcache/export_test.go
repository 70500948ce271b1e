package synthcache

import "repro/internal/telemetry"

// SetTelemetry redirects the cache's counters to reg, so a test reads
// its own tallies instead of the process-wide Default's. Call before
// first use.
func (c *Cache) SetTelemetry(reg *telemetry.Registry) {
	c.mu.Lock()
	c.tel = reg
	c.mu.Unlock()
}

// Len returns the number of resident (built) entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
