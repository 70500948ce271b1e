package wire

import "testing"

// Fuzz targets: decoders must never panic or over-read on arbitrary
// bytes, and anything they accept must re-encode to something they accept
// again (decode-encode-decode stability).

func FuzzDecodeIPv4(f *testing.F) {
	h := IPv4{DSCP: 1, TTL: 64, Protocol: ProtoUDP, Src: [4]byte{1}, Dst: [4]byte{2}}
	f.Add(h.Encode(nil))
	f.Add([]byte{})
	f.Add([]byte{0x45})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, _, err := DecodeIPv4(data)
		if err != nil {
			return
		}
		// Accepted packets round-trip through our encoder.
		re := got.Encode(nil)
		got2, _, err := DecodeIPv4(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if got2 != got {
			t.Fatalf("unstable: %+v vs %+v", got, got2)
		}
	})
}

func FuzzDecodeRoCEv2(f *testing.F) {
	p := &RoCEv2Packet{
		IP:      IPv4{DSCP: 1, TTL: 64},
		BTH:     BTH{Opcode: OpcodeRCWriteOnly, PSN: 7},
		Payload: []byte{1, 2, 3},
	}
	f.Add(EncodeRoCEv2(p))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeRoCEv2(data)
		if err != nil {
			return
		}
		re := EncodeRoCEv2(got)
		got2, err := DecodeRoCEv2(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if got2.IP.DSCP != got.IP.DSCP || got2.BTH.PSN != got.BTH.PSN {
			t.Fatal("unstable fields")
		}
	})
}
