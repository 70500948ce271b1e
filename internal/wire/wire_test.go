package wire

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestEthernetRoundTrip(t *testing.T) {
	e := Ethernet{
		Dst:       MAC{0x01, 0x02, 0x03, 0x04, 0x05, 0x06},
		Src:       MAC{0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f},
		EtherType: EtherTypeIPv4,
	}
	b := e.Encode(nil)
	if len(b) != EthernetLen {
		t.Fatalf("len = %d", len(b))
	}
	got, rest, err := DecodeEthernet(append(b, 0xAA))
	if err != nil {
		t.Fatal(err)
	}
	if got != e || len(rest) != 1 {
		t.Errorf("roundtrip: %+v", got)
	}
	if _, _, err := DecodeEthernet(b[:10]); err != ErrTruncated {
		t.Errorf("truncation: %v", err)
	}
	if got.Src.String() != "0a:0b:0c:0d:0e:0f" {
		t.Errorf("MAC string: %s", got.Src)
	}
}

func TestIPv4RoundTripAndChecksum(t *testing.T) {
	h := IPv4{
		DSCP: 2, ECN: 1, TotalLen: 40, ID: 0x1234, TTL: 64, Protocol: ProtoUDP,
		Src: [4]byte{10, 0, 0, 1}, Dst: [4]byte{10, 0, 0, 2},
	}
	b := h.Encode(nil)
	if len(b) != IPv4Len {
		t.Fatalf("len = %d", len(b))
	}
	got, rest, err := DecodeIPv4(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != h || len(rest) != 0 {
		t.Errorf("roundtrip: %+v vs %+v", got, h)
	}
	// Corrupt a byte: checksum must catch it.
	b[16] ^= 0xff
	if _, _, err := DecodeIPv4(b); err == nil {
		t.Error("corruption not detected")
	}
	// Bad version.
	b[16] ^= 0xff
	b[0] = 0x65
	if _, _, err := DecodeIPv4(b); err != ErrBadVersion {
		t.Errorf("version: %v", err)
	}
	if _, _, err := DecodeIPv4(b[:10]); err != ErrTruncated {
		t.Error("truncation")
	}
}

func TestIPv4RoundTripProperty(t *testing.T) {
	f := func(dscp, ecn, ttl, proto uint8, id, totalLen uint16, src, dst [4]byte) bool {
		h := IPv4{
			DSCP: dscp & 0x3f, ECN: ecn & 0x03, TotalLen: totalLen, ID: id,
			TTL: ttl, Protocol: proto, Src: src, Dst: dst,
		}
		got, _, err := DecodeIPv4(h.Encode(nil))
		return err == nil && got == h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUDPRoundTrip(t *testing.T) {
	u := UDP{Src: 50000, Dst: RoCEv2Port, Length: 100}
	got, rest, err := DecodeUDP(append(u.Encode(nil), 1, 2))
	if err != nil || got != u || len(rest) != 2 {
		t.Fatalf("roundtrip: %+v %v", got, err)
	}
	if _, _, err := DecodeUDP(nil); err != ErrTruncated {
		t.Error("truncation")
	}
}

func TestBTHRoundTrip(t *testing.T) {
	h := BTH{Opcode: OpcodeRCWriteOnly, PKey: 0xffff, DestQP: 0x0abcde, AckReq: true, PSN: 0x123456}
	b := h.Encode(nil)
	if len(b) != BTHLen {
		t.Fatalf("len = %d", len(b))
	}
	got, rest, err := DecodeBTH(append(b, 9))
	if err != nil || got != h || len(rest) != 1 {
		t.Fatalf("roundtrip: %+v vs %+v (%v)", got, h, err)
	}
	if _, _, err := DecodeBTH(b[:4]); err != ErrTruncated {
		t.Error("truncation")
	}
}

func TestRoCEv2EndToEnd(t *testing.T) {
	p := &RoCEv2Packet{
		Eth: Ethernet{Dst: MAC{1}, Src: MAC{2}},
		IP: IPv4{
			DSCP: 1, TTL: 64,
			Src: [4]byte{10, 1, 0, 1}, Dst: [4]byte{10, 2, 0, 1},
		},
		UDP:     UDP{Src: 49152},
		BTH:     BTH{Opcode: OpcodeRCWriteOnly, DestQP: 7, PSN: 42},
		Payload: bytes.Repeat([]byte{0x5a}, 32),
	}
	frame := EncodeRoCEv2(p)
	got, err := DecodeRoCEv2(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tag() != 1 {
		t.Errorf("tag = %d", got.Tag())
	}
	if got.BTH.PSN != 42 || got.UDP.Dst != RoCEv2Port {
		t.Errorf("fields: %+v", got)
	}
	if !bytes.Equal(got.Payload, p.Payload) {
		t.Error("payload mangled")
	}

	// Wrong ethertype / protocol / port are all rejected.
	bad := append([]byte(nil), frame...)
	bad[12] = 0x86 // not IPv4
	if _, err := DecodeRoCEv2(bad); err == nil {
		t.Error("ethertype accepted")
	}
}

func TestRewriteTag(t *testing.T) {
	p := &RoCEv2Packet{
		IP:  IPv4{DSCP: 1, TTL: 64, Src: [4]byte{1}, Dst: [4]byte{2}},
		BTH: BTH{Opcode: OpcodeRCWriteOnly},
	}
	frame := EncodeRoCEv2(p)
	old, err := RewriteTag(frame, 2)
	if err != nil || old != 1 {
		t.Fatalf("rewrite: old=%d err=%v", old, err)
	}
	// The frame must still parse with a valid checksum and the new tag.
	got, err := DecodeRoCEv2(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tag() != 2 {
		t.Errorf("tag = %d", got.Tag())
	}
	if _, err := RewriteTag(frame[:10], 1); err != ErrTruncated {
		t.Error("truncation")
	}
}

func TestDecrementTTL(t *testing.T) {
	p := &RoCEv2Packet{IP: IPv4{DSCP: 1, TTL: 64}, BTH: BTH{}}
	frame := EncodeRoCEv2(p)
	for want := 63; want >= 62; want-- {
		ttl, err := DecrementTTL(frame)
		if err != nil || ttl != want {
			t.Fatalf("ttl = %d err=%v", ttl, err)
		}
	}
	got, err := DecodeRoCEv2(frame)
	if err != nil {
		t.Fatal(err) // checksum must remain valid
	}
	if got.IP.TTL != 62 {
		t.Errorf("TTL = %d", got.IP.TTL)
	}
	// At zero it stays zero.
	for i := 0; i < 70; i++ {
		DecrementTTL(frame)
	}
	if ttl, _ := DecrementTTL(frame); ttl != 0 {
		t.Errorf("TTL should floor at 0, got %d", ttl)
	}
}
