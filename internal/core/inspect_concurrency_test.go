package core

import (
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vibguard/internal/detector"
	"vibguard/internal/device"
	"vibguard/internal/segment"
	"vibguard/internal/syncnet"
)

// slowSegmenter returns its error (nil spans either way) after the given
// delay, so the segmenter goroutine is still running when the alignment
// finishes, and records that it returned.
type slowSegmenter struct {
	err      error
	delay    time.Duration
	finished atomic.Bool
}

func (s *slowSegmenter) EffectiveSpans([]float64) ([]segment.Span, error) {
	time.Sleep(s.delay)
	s.finished.Store(true)
	return nil, s.err
}

// waitGoroutines waits for the goroutine count to fall back to base: a
// joined goroutine may still be exiting when the join returns.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d, want %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestInspectContractUnderConcurrency pins Inspect's error contract now
// that segmentation runs concurrently with the alignment: every failure
// returns the error the sequential pipeline returned (alignment before a
// missing segmenter before a segmenter failure), counts one inspect error,
// returns only after its segmenter has, and leaves no goroutine behind.
func TestInspectContractUnderConcurrency(t *testing.T) {
	spans, legitVA, legitWear, _, _ := buildScenario(t, 21)
	errSeg := errors.New("segmenter down")
	errAlign := syncnet.ErrNoOverlap
	failAlign := func([]float64, []float64, float64, float64) ([]float64, int, error) {
		return nil, 0, errAlign
	}
	cases := []struct {
		name      string
		va        []float64
		seg       detector.Segmenter
		align     func([]float64, []float64, float64, float64) ([]float64, int, error)
		wantIs    error
		wantNotIs error
		wantMsg   string
	}{
		{name: "validation fails", va: legitVA[:10], seg: &detector.StaticSegmenter{Spans: spans},
			wantIs: ErrRecordingTooShort},
		{name: "alignment fails", seg: &slowSegmenter{delay: 5 * time.Millisecond}, align: failAlign,
			wantIs: errAlign},
		{name: "segmenter fails", seg: &slowSegmenter{err: errSeg, delay: 5 * time.Millisecond},
			wantIs: errSeg},
		{name: "both fail", seg: &slowSegmenter{err: errSeg, delay: 5 * time.Millisecond}, align: failAlign,
			wantIs: errAlign, wantNotIs: errSeg},
		{name: "nil segmenter", seg: nil,
			wantMsg: "core: full method needs a segmenter"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := NewDefense(DefaultConfig(device.NewFossilGen5(), tc.seg))
			if err != nil {
				t.Fatal(err)
			}
			if tc.align != nil {
				d.align = tc.align
			}
			va := legitVA
			if tc.va != nil {
				va = tc.va
			}
			base := runtime.NumGoroutine()
			total, errs := metInspectTotal.Value(), metInspectErrors.Value()
			v, err := d.Inspect(va, legitWear, rand.New(rand.NewSource(1)))
			if err == nil || v != nil {
				t.Fatalf("Inspect = %v, %v; want an error", v, err)
			}
			if tc.wantIs != nil && !errors.Is(err, tc.wantIs) {
				t.Errorf("error %v, want %v", err, tc.wantIs)
			}
			if tc.wantNotIs != nil && errors.Is(err, tc.wantNotIs) {
				t.Errorf("error %v reports %v, which must lose to the alignment error", err, tc.wantNotIs)
			}
			if tc.wantMsg != "" && !strings.Contains(err.Error(), tc.wantMsg) {
				t.Errorf("error %q, want %q", err, tc.wantMsg)
			}
			if s, ok := tc.seg.(*slowSegmenter); ok && !s.finished.Load() {
				t.Error("Inspect returned before its segmenter goroutine finished")
			}
			if got := metInspectTotal.Value() - total; got != 1 {
				t.Errorf("inspect total moved by %d, want 1", got)
			}
			if got := metInspectErrors.Value() - errs; got != 1 {
				t.Errorf("inspect errors moved by %d, want 1", got)
			}
			waitGoroutines(t, base)
		})
	}
}
