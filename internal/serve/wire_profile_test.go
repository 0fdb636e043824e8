package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"vibguard/internal/wire"
)

// legacyRequestBytes hand-encodes a request the way the pre-extension
// protocol did: UserID, WearableAddr, seed, samples — nothing after.
func legacyRequestBytes(req Request) []byte {
	var dst []byte
	dst = wire.AppendString(dst, req.UserID)
	dst = wire.AppendString(dst, req.WearableAddr)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(req.RNGSeed))
	dst = binary.AppendUvarint(dst, uint64(len(req.VARecording)))
	for _, s := range req.VARecording {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s))
	}
	return dst
}

// TestRequestPayloadLegacyByteIdentity pins backward compatibility at the
// byte level: a request without WearableAddrs encodes identically to the
// pre-extension protocol, so deployed decoders keep working and the
// wire-equivalence goldens stay valid.
func TestRequestPayloadLegacyByteIdentity(t *testing.T) {
	reqs := []Request{
		{},
		{UserID: "alice", WearableAddr: "watch:1", RNGSeed: -7,
			VARecording: []float64{0.25, -1, math.Pi}},
		{WearableAddr: "watch:1", VARecording: make([]float64, 100)},
	}
	for _, req := range reqs {
		got := AppendRequestPayload(nil, req)
		want := legacyRequestBytes(req)
		if !bytes.Equal(got, want) {
			t.Fatalf("request %+v: encoding diverged from the legacy layout\n got % x\nwant % x", req, got, want)
		}
		// And the legacy bytes decode with no extras.
		dec, err := DecodeRequestPayload(want)
		if err != nil {
			t.Fatalf("decode legacy payload: %v", err)
		}
		if dec.WearableAddrs != nil {
			t.Fatalf("legacy payload decoded extras %v", dec.WearableAddrs)
		}
	}
}

// TestRequestPayloadExtensionRoundTrip pins the extension: extras
// round-trip, and the encoding is the legacy bytes plus a trailing block.
func TestRequestPayloadExtensionRoundTrip(t *testing.T) {
	req := Request{
		UserID:        "alice",
		WearableAddr:  "watch:1",
		WearableAddrs: []string{"earbud:2", "anklet:3"},
		RNGSeed:       42,
		VARecording:   []float64{1, 2, 3},
	}
	enc := AppendRequestPayload(nil, req)
	legacy := legacyRequestBytes(req)
	if !bytes.HasPrefix(enc, legacy) {
		t.Fatal("extended encoding does not extend the legacy layout")
	}
	dec, err := DecodeRequestPayload(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(dec.WearableAddrs) != 2 || dec.WearableAddrs[0] != "earbud:2" || dec.WearableAddrs[1] != "anklet:3" {
		t.Fatalf("extras %v, want [earbud:2 anklet:3]", dec.WearableAddrs)
	}
	if dec.UserID != req.UserID || dec.WearableAddr != req.WearableAddr || dec.RNGSeed != req.RNGSeed {
		t.Fatalf("session fields mangled: %+v", dec)
	}
}

// TestRequestPayloadOneAllocation pins the encoder's sizing: a replay-length
// request with extra wearable addrs is encoded into one buffer, sized once
// for the whole payload.
func TestRequestPayloadOneAllocation(t *testing.T) {
	req := Request{UserID: "alice", WearableAddr: "watch:1", WearableAddrs: []string{"earbud:2", "anklet:3"},
		RNGSeed: 42, VARecording: make([]float64, 45040)}
	if n := testing.AllocsPerRun(20, func() { AppendRequestPayload(nil, req) }); n != 1 {
		t.Fatalf("encoding a %d-sample request with %d extra addrs allocates %v times, want 1", len(req.VARecording), len(req.WearableAddrs), n)
	}
}

// TestRequestPayloadExtensionMalformed pins the hardened decode: mangled
// extension blocks are typed wire.ErrMalformedFrame, never a panic or a
// silently dropped field.
func TestRequestPayloadExtensionMalformed(t *testing.T) {
	base := AppendRequestPayload(nil, Request{WearableAddr: "w", VARecording: []float64{1}})
	cases := []struct {
		name string
		blob []byte
	}{
		{"unknown extension flag", append(append([]byte(nil), base...), 0x02)},
		{"flag without count", append(append([]byte(nil), base...), extWearableAddrs)},
		{"zero addr count", append(append([]byte(nil), base...), extWearableAddrs, 0x00)},
		{"count past end", append(append([]byte(nil), base...), extWearableAddrs, 0x09, 0x01, 'a')},
		{"addr length past end", append(append([]byte(nil), base...), extWearableAddrs, 0x01, 0x7f)},
		{"trailing after extras", append(append([]byte(nil), base...), extWearableAddrs, 0x01, 0x01, 'a', 0x00)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeRequestPayload(tc.blob); !errors.Is(err, wire.ErrMalformedFrame) {
				t.Fatalf("decode err %v, want wire.ErrMalformedFrame", err)
			}
		})
	}
}

// TestUserRequiredErrorCode pins the new wire code end to end through the
// error payload codec: ErrUserIDRequired classifies as code 11
// (user_required) and decodes back to the same sentinel.
func TestUserRequiredErrorCode(t *testing.T) {
	if got := errCode(ErrUserIDRequired); got != codeUserRequired {
		t.Fatalf("errCode(ErrUserIDRequired) = %d, want %d", got, codeUserRequired)
	}
	payload := AppendErrorPayload(nil, ErrUserIDRequired)
	if payload[0] != codeUserRequired {
		t.Fatalf("error payload code %d, want %d", payload[0], codeUserRequired)
	}
	sessErr, err := DecodeErrorPayload(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !errors.Is(sessErr, ErrUserIDRequired) {
		t.Fatalf("decoded error %v does not wrap ErrUserIDRequired", sessErr)
	}
}
