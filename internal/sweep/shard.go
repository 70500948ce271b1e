package sweep

// The shard fan-out the synthesis pipeline shares: contiguous sharding of
// an index range across a bounded worker pool. Workers compute into
// shard-indexed slots and the caller folds the slots together in shard
// order, so par=1 and par=N produce identical results; worker count 1
// runs inline on the calling goroutine (the serial path, kept exercised
// by the -par=1 flag and the determinism tests).

import (
	"runtime"
	"sync"
)

// Workers resolves a requested worker count: n <= 0 means GOMAXPROCS,
// and the result is clamped to items so no worker starts idle.
func Workers(n, items int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > items {
		n = items
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Shard is one contiguous sub-range [Lo, Hi) of an index space.
type Shard struct {
	Index  int // shard number, dense from 0
	Lo, Hi int
}

// Shards splits [0, items) into at most want contiguous shards of
// near-equal size, in order. want <= 0 means GOMAXPROCS.
func Shards(items, want int) []Shard {
	w := Workers(want, items)
	if items == 0 {
		return nil
	}
	out := make([]Shard, 0, w)
	base := items / w
	rem := items % w
	lo := 0
	for i := 0; i < w; i++ {
		sz := base
		if i < rem {
			sz++
		}
		out = append(out, Shard{Index: i, Lo: lo, Hi: lo + sz})
		lo += sz
	}
	return out
}

// ForEachShard splits [0, items) into shards and calls fn once per shard,
// on workers goroutines (1 = inline on the caller, the serial path). fn
// must write only to its own shard's slot of whatever output it fills;
// the caller merges slots in shard order after ForEachShard returns.
func ForEachShard(items, workers int, fn func(s Shard)) {
	shards := Shards(items, workers)
	if len(shards) <= 1 {
		for _, s := range shards {
			fn(s)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(shards))
	for _, s := range shards {
		go func(s Shard) {
			defer wg.Done()
			fn(s)
		}(s)
	}
	wg.Wait()
}
