package serve

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"vibguard/internal/core"
	"vibguard/internal/detector"
	"vibguard/internal/syncnet"
	"vibguard/internal/wire"
)

// The error-code pin: every typed session error must classify to its
// stable wire code and round-trip through the binary error payload to the
// same client-side sentinel, so errors.Is/As behave across the wire
// exactly as they do in-process; any divergence here is a silent protocol
// break.

// equivCase is one error code's round-trip expectation.
type equivCase struct {
	name string
	// err is the server-side session error being classified.
	err error
	// wantCode is the stable wire code the error must classify to.
	wantCode byte
	// check asserts the decoded client-side error matches the sentinel.
	check func(t *testing.T, decoded error)
}

func isCheck(sentinel error) func(*testing.T, error) {
	return func(t *testing.T, decoded error) {
		t.Helper()
		if !errors.Is(decoded, sentinel) {
			t.Errorf("decoded error %v does not match sentinel %v", decoded, sentinel)
		}
	}
}

// remoteCheck asserts the decoded error is a RemoteError carrying code.
func remoteCheck(code byte) func(*testing.T, error) {
	return func(t *testing.T, decoded error) {
		t.Helper()
		var re *RemoteError
		if !errors.As(decoded, &re) || re.Code != code {
			t.Errorf("decoded error %v is not a RemoteError of code %d", decoded, code)
		}
	}
}

func equivCases() []equivCase {
	return []equivCase{
		{"overloaded", fmt.Errorf("session: %w", ErrOverloaded), codeOverloaded, isCheck(ErrOverloaded)},
		{"draining", ErrDraining, codeDraining, isCheck(ErrDraining)},
		{"timeout", fmt.Errorf("worker: %w", ErrSessionTimeout), codeTimeout, isCheck(ErrSessionTimeout)},
		{"transport", fmt.Errorf("fetch: %w", syncnet.ErrRetriesExhausted), codeTransport, isCheck(syncnet.ErrRetriesExhausted)},
		{"wearable", &syncnet.WearableError{Msg: "mic busy"}, codeWearable, func(t *testing.T, decoded error) {
			t.Helper()
			var we *syncnet.WearableError
			if !errors.As(decoded, &we) {
				t.Errorf("decoded error %v is not a WearableError", decoded)
			}
		}},
		{"nonfinite", fmt.Errorf("inspect: %w", detector.ErrNonFiniteScore), codeNonFinite, isCheck(detector.ErrNonFiniteScore)},
		{"bad_recording", &core.RecordingIssue{Source: "va", Err: errors.New("NaN sample"), Detail: "index 3"},
			codeBadRecording, remoteCheck(codeBadRecording)},
		{"internal", errors.New("defense exploded"), codeInternal, remoteCheck(codeInternal)},
		{"node_lost", fmt.Errorf("router: %w", ErrNodeLost), codeNodeLost, isCheck(ErrNodeLost)},
		{"no_nodes", ErrNoNodes, codeNoNodes, isCheck(ErrNoNodes)},
		{"user_required", fmt.Errorf("admit: %w", ErrUserIDRequired), codeUserRequired, isCheck(ErrUserIDRequired)},
	}
}

// TestErrorCodeRoundTrip classifies every typed error onto its wire code
// and round-trips it through the binary error payload to its sentinel.
func TestErrorCodeRoundTrip(t *testing.T) {
	for _, tc := range equivCases() {
		t.Run(tc.name, func(t *testing.T) {
			if got := errCode(tc.err); got != tc.wantCode {
				t.Fatalf("errCode = %d, want %d", got, tc.wantCode)
			}
			decoded, err := DecodeErrorPayload(AppendErrorPayload(nil, tc.err))
			if err != nil {
				t.Fatalf("binary decode: %v", err)
			}
			tc.check(t, decoded)
		})
	}
}

// TestErrorPayloadCarriesNodeIdentity pins the binary codec's routing
// extension: a NodeError wrapping survives the wire with both the node id
// and the inner sentinel intact.
func TestErrorPayloadCarriesNodeIdentity(t *testing.T) {
	src := &NodeError{Node: "node3", Err: fmt.Errorf("remote: %w", ErrOverloaded)}
	decoded, err := DecodeErrorPayload(AppendErrorPayload(nil, src))
	if err != nil {
		t.Fatal(err)
	}
	var ne *NodeError
	if !errors.As(decoded, &ne) {
		t.Fatalf("decoded error %v lost the NodeError wrapper", decoded)
	}
	if ne.Node != "node3" {
		t.Errorf("node identity %q survived as %q", src.Node, ne.Node)
	}
	if !errors.Is(decoded, ErrOverloaded) {
		t.Errorf("decoded error %v lost the ErrOverloaded sentinel", decoded)
	}
}

// TestUnknownErrorCodeDegradesGracefully pins forward compatibility: a
// code from a newer server decodes to a RemoteError (never a panic or a
// misclassification onto some existing sentinel).
func TestUnknownErrorCodeDegradesGracefully(t *testing.T) {
	payload := wire.AppendString(wire.AppendString([]byte{0xEE}, ""), "a future failure")
	decoded, err := DecodeErrorPayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	var re *RemoteError
	if !errors.As(decoded, &re) {
		t.Fatalf("decoded error %v is not a RemoteError", decoded)
	}
	if re.Code != 0xEE {
		t.Errorf("unknown code decoded to code %d, want 238", re.Code)
	}
}

// TestVerdictRoundTrip round-trips a verdict through the binary payload
// and asserts the client-visible fields agree bit-for-bit.
func TestVerdictRoundTrip(t *testing.T) {
	want := wireVerdict{Score: 0.8125, Attack: true, SyncOffset: -272, Spans: 5}
	got, err := DecodeVerdictPayload(AppendVerdictPayload(nil, want))
	if err != nil {
		t.Fatalf("binary decode: %v", err)
	}
	if math.Float64bits(got.Score) != math.Float64bits(want.Score) {
		t.Errorf("score bits %#x, want %#x", math.Float64bits(got.Score), math.Float64bits(want.Score))
	}
	if got.Attack != want.Attack || got.SyncOffset != want.SyncOffset || got.Spans != want.Spans {
		t.Errorf("verdict %+v, want %+v", got, want)
	}
}

// TestRequestRoundTrip round-trips a request through the binary payload:
// same user, wearable address and seed, bit-identical samples.
func TestRequestRoundTrip(t *testing.T) {
	samples := []float64{0.5, -0.25, 1e-9, math.Pi}
	wantReq := Request{UserID: "user-a", WearableAddr: "10.0.0.5:7700", VARecording: samples, RNGSeed: -77}
	gotBin, err := DecodeRequestPayload(AppendRequestPayload(nil, wantReq))
	if err != nil {
		t.Fatalf("binary decode: %v", err)
	}
	if gotBin.UserID != wantReq.UserID || gotBin.WearableAddr != wantReq.WearableAddr || gotBin.RNGSeed != wantReq.RNGSeed {
		t.Fatalf("binary request round trip: %+v", gotBin)
	}
	if len(gotBin.VARecording) != len(samples) {
		t.Fatalf("binary request carried %d samples, want %d", len(gotBin.VARecording), len(samples))
	}
	for i, s := range gotBin.VARecording {
		if math.Float64bits(s) != math.Float64bits(samples[i]) {
			t.Errorf("binary sample %d: bits %#x, want %#x", i, math.Float64bits(s), math.Float64bits(samples[i]))
		}
	}
}
