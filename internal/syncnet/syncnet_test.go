package syncnet

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"vibguard/internal/dsp"
	"vibguard/internal/phoneme"
)

func TestTriggerRecordingRoundTrip(t *testing.T) {
	want := []float64{1, 2, 3, 4.5}
	agent, err := NewWearableAgent("127.0.0.1:0", func(id uint64) ([]float64, error) {
		return want, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = agent.Close() }()

	client, err := DialWearable(agent.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()

	got, err := client.RequestRecording(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d samples, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMultipleSessionsOverOneConnection(t *testing.T) {
	agent, err := NewWearableAgent("127.0.0.1:0", func(id uint64) ([]float64, error) {
		return []float64{float64(id)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = agent.Close() }()

	client, err := DialWearable(agent.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()

	for i := 1; i <= 5; i++ {
		got, err := client.RequestRecording(2 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != float64(i) {
			t.Fatalf("session %d returned %v", i, got[0])
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	agent, err := NewWearableAgent("127.0.0.1:0", func(id uint64) ([]float64, error) {
		return []float64{42}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = agent.Close() }()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client, err := DialWearable(agent.Addr(), time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer func() { _ = client.Close() }()
			if _, err := client.RequestRecording(2 * time.Second); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestWearableErrorPropagates(t *testing.T) {
	agent, err := NewWearableAgent("127.0.0.1:0", func(id uint64) ([]float64, error) {
		return nil, fmt.Errorf("microphone busy")
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = agent.Close() }()

	client, err := DialWearable(agent.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()

	if _, err := client.RequestRecording(2 * time.Second); err == nil {
		t.Fatal("wearable error should propagate")
	}
}

func TestAgentValidation(t *testing.T) {
	if _, err := NewWearableAgent("127.0.0.1:0", nil); err == nil {
		t.Error("nil record func should error")
	}
	if _, err := DialWearable("127.0.0.1:1", 100*time.Millisecond); err == nil {
		t.Error("dial to closed port should error")
	}
}

func TestAgentCloseIdempotent(t *testing.T) {
	agent, err := NewWearableAgent("127.0.0.1:0", func(uint64) ([]float64, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := agent.Close(); err != nil {
		t.Fatal(err)
	}
	if err := agent.Close(); err != nil {
		t.Fatal("second close should be nil")
	}
}

func TestSimulateAndAlign(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	synth, err := phoneme.NewSynthesizer(phoneme.NewVoicePool(1, 3)[0])
	if err != nil {
		t.Fatal(err)
	}
	utt, err := synth.Synthesize(phoneme.Commands()[0])
	if err != nil {
		t.Fatal(err)
	}
	va := utt.Samples
	for _, delay := range []float64{0, 0.05, 0.1, 0.2} {
		wear := SimulateNetworkDelay(utt.Samples, delay, 16000, rng)
		wantOffset := int(delay * 16000)
		if len(wear) != len(utt.Samples)+wantOffset {
			t.Fatalf("delay %v: wearable length %d", delay, len(wear))
		}
		aligned, tau, err := AlignRecordings(va, wear, 0.5, 16000)
		if err != nil {
			t.Fatal(err)
		}
		if int(math.Abs(float64(tau-wantOffset))) > 8 {
			t.Errorf("delay %v: estimated offset %d, want ~%d", delay, tau, wantOffset)
		}
		// After alignment the two signals should be nearly identical.
		n := len(va)
		if len(aligned) < n {
			n = len(aligned)
		}
		if r := pearson(va[:n], aligned[:n]); r < 0.95 {
			t.Errorf("delay %v: post-alignment correlation %v", delay, r)
		}
	}
}

// pearson is the Pearson correlation coefficient of two equal-length
// vectors (0 when either has zero variance or the lengths differ).
func pearson(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	meanA, meanB := dsp.Mean(a), dsp.Mean(b)
	var num, varA, varB float64
	for i := range a {
		da, db := a[i]-meanA, b[i]-meanB
		num += da * db
		varA += da * da
		varB += db * db
	}
	den := math.Sqrt(varA * varB)
	if den == 0 {
		return 0
	}
	return num / den
}

func TestAlignRecordingsErrors(t *testing.T) {
	if _, _, err := AlignRecordings(nil, []float64{1}, 0.5, 16000); err == nil {
		t.Error("empty VA recording should error")
	}
	if _, _, err := AlignRecordings([]float64{1}, nil, 0.5, 16000); err == nil {
		t.Error("empty wearable recording should error")
	}
	// Tiny recordings with huge lag bound must clamp, not panic.
	aligned, tau, err := AlignRecordings([]float64{1, 2}, []float64{1, 2}, 100, 16000)
	if err != nil {
		t.Fatal(err)
	}
	if tau < 0 || len(aligned) == 0 {
		t.Errorf("clamped alignment: tau=%d len=%d", tau, len(aligned))
	}
}

func TestSimulateNetworkDelayZero(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	in := []float64{1, 2, 3}
	out := SimulateNetworkDelay(in, 0, 16000, rng)
	if len(out) != 3 {
		t.Fatalf("len = %d", len(out))
	}
	out[0] = 99
	if in[0] == 99 {
		t.Error("zero-delay output shares storage with input")
	}
}

func TestEndToEndRecordingTransfer(t *testing.T) {
	// Full path: synthesize a command, "record" it on the wearable side,
	// ship it over TCP, align against the VA copy.
	rng := rand.New(rand.NewSource(3))
	synth, err := phoneme.NewSynthesizer(phoneme.NewVoicePool(1, 3)[0])
	if err != nil {
		t.Fatal(err)
	}
	utt, err := synth.Synthesize(phoneme.Commands()[2])
	if err != nil {
		t.Fatal(err)
	}
	delayed := SimulateNetworkDelay(utt.Samples, 0.1, 16000, rng)
	agent, err := NewWearableAgent("127.0.0.1:0", func(uint64) ([]float64, error) {
		return delayed, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = agent.Close() }()
	client, err := DialWearable(agent.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()
	wearRec, err := client.RequestRecording(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	aligned, tau, err := AlignRecordings(utt.Samples, wearRec, 0.5, 16000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(tau)-1600) > 8 {
		t.Errorf("tau = %d, want ~1600", tau)
	}
	if len(aligned) < len(utt.Samples)-16 {
		t.Errorf("aligned too short: %d", len(aligned))
	}
}
