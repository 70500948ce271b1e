// Package wire implements the on-the-wire encodings Tagger's deployment
// story depends on (§7): Ethernet, IPv4 with the DSCP field that carries
// the tag, UDP and the RoCEv2 Base Transport Header. The deployment
// described in the paper is exactly "rewrite DSCP in the IP header with
// TCAM rules"; this package is the byte-level ground truth for that
// claim, with layered decoding in the style of gopacket (each layer
// exposes its payload for the next).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Common errors.
var (
	ErrTruncated  = errors.New("wire: truncated packet")
	ErrBadVersion = errors.New("wire: unsupported IP version")
)

// EtherTypeIPv4 is the EtherType of an IPv4 payload.
const EtherTypeIPv4 uint16 = 0x0800

// RoCEv2Port is the well-known UDP destination port of RoCEv2.
const RoCEv2Port uint16 = 4791

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

// String renders the usual colon form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// Ethernet is the 14-byte Ethernet II header.
type Ethernet struct {
	Dst, Src  MAC
	EtherType uint16
}

// EthernetLen is the encoded header length.
const EthernetLen = 14

// Encode appends the header to b.
func (e *Ethernet) Encode(b []byte) []byte {
	b = append(b, e.Dst[:]...)
	b = append(b, e.Src[:]...)
	return binary.BigEndian.AppendUint16(b, e.EtherType)
}

// DecodeEthernet parses the header and returns it with its payload.
func DecodeEthernet(b []byte) (Ethernet, []byte, error) {
	if len(b) < EthernetLen {
		return Ethernet{}, nil, ErrTruncated
	}
	var e Ethernet
	copy(e.Dst[:], b[0:6])
	copy(e.Src[:], b[6:12])
	e.EtherType = binary.BigEndian.Uint16(b[12:14])
	return e, b[EthernetLen:], nil
}

// IPv4 is the fixed 20-byte IPv4 header (no options), which is what the
// Tagger pipeline matches and rewrites: the Tag lives in DSCP.
type IPv4 struct {
	DSCP     uint8 // 6 bits: the Tagger tag
	ECN      uint8 // 2 bits: used by the DCQCN substrate
	TotalLen uint16
	ID       uint16
	TTL      uint8
	Protocol uint8
	Src, Dst [4]byte
}

// IPv4Len is the encoded header length (no options).
const IPv4Len = 20

// ProtoUDP is the IPv4 protocol number of UDP.
const ProtoUDP uint8 = 17

// Encode appends the header (with correct checksum) to b.
func (h *IPv4) Encode(b []byte) []byte {
	start := len(b)
	b = append(b,
		0x45,                   // version 4, IHL 5
		h.DSCP<<2|(h.ECN&0x03), // TOS byte
		byte(h.TotalLen>>8), byte(h.TotalLen),
		byte(h.ID>>8), byte(h.ID),
		0, 0, // flags/fragment
		h.TTL, h.Protocol,
		0, 0, // checksum placeholder
	)
	b = append(b, h.Src[:]...)
	b = append(b, h.Dst[:]...)
	sum := ipChecksum(b[start : start+IPv4Len])
	binary.BigEndian.PutUint16(b[start+10:start+12], sum)
	return b
}

// DecodeIPv4 parses the header, verifies the checksum, and returns the
// payload.
func DecodeIPv4(b []byte) (IPv4, []byte, error) {
	if len(b) < IPv4Len {
		return IPv4{}, nil, ErrTruncated
	}
	if b[0]>>4 != 4 {
		return IPv4{}, nil, ErrBadVersion
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl < IPv4Len || len(b) < ihl {
		return IPv4{}, nil, ErrTruncated
	}
	if ipChecksum(b[:ihl]) != 0 {
		return IPv4{}, nil, fmt.Errorf("wire: bad IPv4 checksum")
	}
	var h IPv4
	h.DSCP = b[1] >> 2
	h.ECN = b[1] & 0x03
	h.TotalLen = binary.BigEndian.Uint16(b[2:4])
	h.ID = binary.BigEndian.Uint16(b[4:6])
	h.TTL = b[8]
	h.Protocol = b[9]
	copy(h.Src[:], b[12:16])
	copy(h.Dst[:], b[16:20])
	return h, b[ihl:], nil
}

// ipChecksum is the standard ones-complement sum (checksum field zeroed
// by the caller for computation; verification over a valid header yields
// zero).
func ipChecksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// UDP is the 8-byte UDP header (checksum left zero, as RoCEv2 permits).
type UDP struct {
	Src, Dst uint16
	Length   uint16
}

// UDPLen is the encoded header length.
const UDPLen = 8

// Encode appends the header to b.
func (u *UDP) Encode(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, u.Src)
	b = binary.BigEndian.AppendUint16(b, u.Dst)
	b = binary.BigEndian.AppendUint16(b, u.Length)
	return binary.BigEndian.AppendUint16(b, 0)
}

// DecodeUDP parses the header and returns the payload.
func DecodeUDP(b []byte) (UDP, []byte, error) {
	if len(b) < UDPLen {
		return UDP{}, nil, ErrTruncated
	}
	var u UDP
	u.Src = binary.BigEndian.Uint16(b[0:2])
	u.Dst = binary.BigEndian.Uint16(b[2:4])
	u.Length = binary.BigEndian.Uint16(b[4:6])
	return u, b[UDPLen:], nil
}

// BTH is the 12-byte InfiniBand Base Transport Header RoCEv2 carries in
// UDP.
type BTH struct {
	Opcode uint8
	PKey   uint16
	DestQP uint32 // 24 bits
	AckReq bool
	PSN    uint32 // 24 bits
}

// BTHLen is the encoded header length.
const BTHLen = 12

// OpcodeRCWriteOnly is the BTH opcode of a reliable-connection RDMA
// WRITE Only packet.
const OpcodeRCWriteOnly uint8 = 0x0A

// Encode appends the header to b. Layout per the InfiniBand spec:
// opcode, SE/M/Pad/TVer, PKey, reserved, DestQP(24), AckReq+reserved,
// PSN(24).
func (h *BTH) Encode(b []byte) []byte {
	b = append(b, h.Opcode, 0) // SE/M/Pad/TVer zeroed
	b = binary.BigEndian.AppendUint16(b, h.PKey)
	b = append(b, 0, byte(h.DestQP>>16), byte(h.DestQP>>8), byte(h.DestQP))
	ack := byte(0)
	if h.AckReq {
		ack = 0x80
	}
	return append(b, ack, byte(h.PSN>>16), byte(h.PSN>>8), byte(h.PSN))
}

// DecodeBTH parses the header and returns the payload.
func DecodeBTH(b []byte) (BTH, []byte, error) {
	if len(b) < BTHLen {
		return BTH{}, nil, ErrTruncated
	}
	var h BTH
	h.Opcode = b[0]
	h.PKey = binary.BigEndian.Uint16(b[2:4])
	h.DestQP = uint32(b[5])<<16 | uint32(b[6])<<8 | uint32(b[7])
	h.AckReq = b[8]&0x80 != 0
	h.PSN = uint32(b[9])<<16 | uint32(b[10])<<8 | uint32(b[11])
	return h, b[BTHLen:], nil
}
