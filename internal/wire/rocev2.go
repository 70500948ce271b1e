package wire

import "fmt"

// RoCEv2Packet is a fully parsed RoCEv2 frame.
type RoCEv2Packet struct {
	Eth     Ethernet
	IP      IPv4
	UDP     UDP
	BTH     BTH
	Payload []byte
}

// Tag returns the Tagger tag the packet carries: the DSCP field (§7:
// "We use DSCP field in IP header as the tag").
func (p *RoCEv2Packet) Tag() int { return int(p.IP.DSCP) }

// EncodeRoCEv2 composes a complete frame.
func EncodeRoCEv2(p *RoCEv2Packet) []byte {
	p.UDP.Dst = RoCEv2Port
	p.UDP.Length = uint16(UDPLen + BTHLen + len(p.Payload))
	p.IP.Protocol = ProtoUDP
	p.IP.TotalLen = uint16(IPv4Len) + p.UDP.Length
	p.Eth.EtherType = EtherTypeIPv4

	b := make([]byte, 0, EthernetLen+int(p.IP.TotalLen))
	b = p.Eth.Encode(b)
	b = p.IP.Encode(b)
	b = p.UDP.Encode(b)
	b = p.BTH.Encode(b)
	return append(b, p.Payload...)
}

// DecodeRoCEv2 parses a frame down to the BTH, rejecting non-RoCEv2
// traffic.
func DecodeRoCEv2(b []byte) (*RoCEv2Packet, error) {
	var p RoCEv2Packet
	var err error
	var rest []byte
	if p.Eth, rest, err = DecodeEthernet(b); err != nil {
		return nil, err
	}
	if p.Eth.EtherType != EtherTypeIPv4 {
		return nil, fmt.Errorf("wire: ethertype 0x%04x is not IPv4", p.Eth.EtherType)
	}
	if p.IP, rest, err = DecodeIPv4(rest); err != nil {
		return nil, err
	}
	if p.IP.Protocol != ProtoUDP {
		return nil, fmt.Errorf("wire: protocol %d is not UDP", p.IP.Protocol)
	}
	if p.UDP, rest, err = DecodeUDP(rest); err != nil {
		return nil, err
	}
	if p.UDP.Dst != RoCEv2Port {
		return nil, fmt.Errorf("wire: UDP port %d is not RoCEv2", p.UDP.Dst)
	}
	if p.BTH, rest, err = DecodeBTH(rest); err != nil {
		return nil, err
	}
	p.Payload = rest
	return &p, nil
}

// RewriteTag performs the §7 switch action on an encoded frame in place:
// rewrite DSCP to the new tag and fix the IPv4 checksum. It is the
// byte-level equivalent of core.Ruleset.Classify's rewrite step and
// returns the old tag.
func RewriteTag(frame []byte, newTag int) (old int, err error) {
	if len(frame) < EthernetLen+IPv4Len {
		return 0, ErrTruncated
	}
	ip := frame[EthernetLen : EthernetLen+IPv4Len]
	if ip[0]>>4 != 4 {
		return 0, ErrBadVersion
	}
	old = int(ip[1] >> 2)
	ip[1] = byte(newTag)<<2 | ip[1]&0x03
	// Incremental checksum update would do; recompute for clarity.
	ip[10], ip[11] = 0, 0
	sum := ipChecksum(ip)
	ip[10], ip[11] = byte(sum>>8), byte(sum)
	return old, nil
}

// DecrementTTL performs the per-hop TTL update on an encoded frame,
// returning the new TTL (the Table 1 probes measure exactly this field).
func DecrementTTL(frame []byte) (int, error) {
	if len(frame) < EthernetLen+IPv4Len {
		return 0, ErrTruncated
	}
	ip := frame[EthernetLen : EthernetLen+IPv4Len]
	if ip[8] == 0 {
		return 0, nil
	}
	ip[8]--
	ip[10], ip[11] = 0, 0
	sum := ipChecksum(ip)
	ip[10], ip[11] = byte(sum>>8), byte(sum)
	return int(ip[8]), nil
}
