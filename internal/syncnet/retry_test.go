package syncnet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"
)

// fastPolicy keeps test retries snappy.
func fastPolicy(attempts int) RetryPolicy {
	return RetryPolicy{MaxAttempts: attempts, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond, Multiplier: 2}
}

func TestBackoffSequence(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 6, BaseDelay: 10 * time.Millisecond, MaxDelay: 45 * time.Millisecond, Multiplier: 2}
	want := []time.Duration{10, 20, 40, 45, 45}
	for i, w := range want {
		if got := p.Backoff(i); got != w*time.Millisecond {
			t.Errorf("Backoff(%d) = %v, want %v", i, got, w*time.Millisecond)
		}
	}
	if got := p.Backoff(-3); got != 10*time.Millisecond {
		t.Errorf("Backoff(-3) = %v, want base delay", got)
	}
}

func TestRetryPolicyValidate(t *testing.T) {
	bad := []RetryPolicy{
		{MaxAttempts: 0, Multiplier: 2},
		{MaxAttempts: 1, Multiplier: 0.5},
		{MaxAttempts: 1, Multiplier: 2, BaseDelay: -time.Second},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("policy %d should fail validation", i)
		}
	}
	if err := DefaultRetryPolicy().Validate(); err != nil {
		t.Errorf("default policy invalid: %v", err)
	}
}

func TestReliableClientRoundTrip(t *testing.T) {
	want := []float64{1, 2, 3}
	agent, err := NewWearableAgent("127.0.0.1:0", func(uint64) ([]float64, error) { return want, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = agent.Close() }()
	rc, err := NewReliableClient(agent.Addr(), WithRetryPolicy(fastPolicy(3)))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = rc.Close() }()
	got, err := rc.RequestRecording()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d samples, want %d", len(got), len(want))
	}
	if rc.Attempts() != 1 || rc.Redials() != 1 {
		t.Errorf("attempts=%d redials=%d, want 1/1", rc.Attempts(), rc.Redials())
	}
	// Second request reuses the connection.
	if _, err := rc.RequestRecording(); err != nil {
		t.Fatal(err)
	}
	if rc.Redials() != 1 {
		t.Errorf("second request redialed (%d)", rc.Redials())
	}
}

func TestReliableClientRetriesTransientDialFailure(t *testing.T) {
	agent, err := NewWearableAgent("127.0.0.1:0", func(uint64) ([]float64, error) { return []float64{7}, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = agent.Close() }()
	failures := 2
	dial := func(addr string, timeout time.Duration) (net.Conn, error) {
		if failures > 0 {
			failures--
			return nil, fmt.Errorf("transient dial failure")
		}
		return net.DialTimeout("tcp", addr, timeout)
	}
	rc, err := NewReliableClient(agent.Addr(), WithDialFunc(dial), WithRetryPolicy(fastPolicy(4)))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = rc.Close() }()
	if _, err := rc.RequestRecording(); err != nil {
		t.Fatalf("request should survive two dial failures: %v", err)
	}
	if rc.Attempts() != 3 {
		t.Errorf("attempts = %d, want 3", rc.Attempts())
	}
}

func TestReliableClientExhaustsRetries(t *testing.T) {
	dial := func(string, time.Duration) (net.Conn, error) {
		return nil, fmt.Errorf("unreachable")
	}
	rc, err := NewReliableClient("127.0.0.1:1", WithDialFunc(dial), WithRetryPolicy(fastPolicy(3)))
	if err != nil {
		t.Fatal(err)
	}
	_, err = rc.RequestRecording()
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	if rc.Attempts() != 3 {
		t.Errorf("attempts = %d, want 3", rc.Attempts())
	}
}

func TestReliableClientDoesNotRetryWearableErrors(t *testing.T) {
	agent, err := NewWearableAgent("127.0.0.1:0", func(uint64) ([]float64, error) {
		return nil, fmt.Errorf("microphone busy")
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = agent.Close() }()
	rc, err := NewReliableClient(agent.Addr(), WithRetryPolicy(fastPolicy(5)))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = rc.Close() }()
	_, err = rc.RequestRecording()
	var wearErr *WearableError
	if !errors.As(err, &wearErr) {
		t.Fatalf("err = %v, want *WearableError", err)
	}
	if rc.Attempts() != 1 {
		t.Errorf("wearable-side error retried: %d attempts", rc.Attempts())
	}
}

// TestAgentSurvivesMidStreamReset pins the handle() error-propagation fix:
// a connection torn down mid-stream must be counted as a per-connection
// error, and the agent must keep serving subsequent clients.
func TestAgentSurvivesMidStreamReset(t *testing.T) {
	var reported []error
	agent, err := NewWearableAgent("127.0.0.1:0",
		func(uint64) ([]float64, error) { return []float64{9}, nil },
		WithConnErrorHandler(func(err error) { reported = append(reported, err) }))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = agent.Close() }()

	// Write a garbage partial frame, then reset the connection hard.
	raw, err := net.Dial("tcp", agent.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write([]byte{0xff, 0x13, 0x37}); err != nil {
		t.Fatal(err)
	}
	if tc, ok := raw.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
	_ = raw.Close()

	// The agent must notice the failure...
	deadline := time.Now().Add(2 * time.Second)
	for agent.ConnErrors() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if agent.ConnErrors() == 0 {
		t.Fatal("mid-stream reset was silently dropped")
	}
	if agent.LastConnError() == nil {
		t.Error("LastConnError is nil after a reset")
	}

	// ...and still serve a fresh client.
	client, err := DialWearable(agent.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()
	got, err := client.RequestRecording(2 * time.Second)
	if err != nil {
		t.Fatalf("agent stopped serving after a reset: %v", err)
	}
	if len(got) != 1 || got[0] != 9 {
		t.Errorf("recording = %v", got)
	}
	if len(reported) == 0 {
		t.Error("error handler was never invoked")
	}
}

// TestAgentCleanDisconnectNotCounted verifies a polite client close is not
// treated as a failure.
func TestAgentCleanDisconnectNotCounted(t *testing.T) {
	agent, err := NewWearableAgent("127.0.0.1:0", func(uint64) ([]float64, error) { return []float64{1}, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = agent.Close() }()
	client, err := DialWearable(agent.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.RequestRecording(time.Second); err != nil {
		t.Fatal(err)
	}
	_ = client.Close()
	time.Sleep(20 * time.Millisecond)
	if n := agent.ConnErrors(); n != 0 {
		t.Errorf("clean disconnect counted as %d errors (last: %v)", n, agent.LastConnError())
	}
}

func TestRequestRecordingContextCancelDuringBackoff(t *testing.T) {
	// Every dial fails, so the client sits in backoff between attempts; a
	// cancellation mid-sleep must surface promptly as the context error.
	failDial := func(addr string, timeout time.Duration) (net.Conn, error) {
		return nil, fmt.Errorf("dial refused")
	}
	rc, err := NewReliableClient("127.0.0.1:1",
		WithDialFunc(failDial),
		WithRetryPolicy(RetryPolicy{MaxAttempts: 100, BaseDelay: time.Second, MaxDelay: time.Second, Multiplier: 1}))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = rc.RequestRecordingContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("cancellation took %v, backoff sleep not interrupted", elapsed)
	}
	// The cancellation wrapper still reports what the transport was doing.
	if err.Error() == context.Canceled.Error() {
		t.Errorf("err %q lost the last transport error", err)
	}
}

func TestRequestRecordingContextDeadlineBoundsAttempts(t *testing.T) {
	var dials int
	failDial := func(addr string, timeout time.Duration) (net.Conn, error) {
		dials++
		return nil, fmt.Errorf("dial refused")
	}
	rc, err := NewReliableClient("127.0.0.1:1",
		WithDialFunc(failDial),
		WithRetryPolicy(RetryPolicy{MaxAttempts: 1000, BaseDelay: 5 * time.Millisecond, MaxDelay: 5 * time.Millisecond, Multiplier: 1}))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err = rc.RequestRecordingContext(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if dials >= 1000 {
		t.Errorf("deadline did not bound attempts: %d dials", dials)
	}
}

func TestRequestRecordingContextBackgroundMatchesPlain(t *testing.T) {
	want := []float64{4, 5, 6}
	agent, err := NewWearableAgent("127.0.0.1:0", func(uint64) ([]float64, error) { return want, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = agent.Close() }()
	rc, err := NewReliableClient(agent.Addr(), WithRetryPolicy(fastPolicy(3)))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = rc.Close() }()
	got, err := rc.RequestRecordingContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d samples, want %d", len(got), len(want))
	}
}

func TestClipTimeout(t *testing.T) {
	if got := clipTimeout(context.Background(), time.Second); got != time.Second {
		t.Errorf("no deadline: %v, want 1s", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if got := clipTimeout(ctx, time.Hour); got > 10*time.Millisecond || got <= 0 {
		t.Errorf("near deadline: %v, want (0, 10ms]", got)
	}
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if got := clipTimeout(expired, time.Hour); got <= 0 {
		t.Errorf("past deadline: %v, must stay positive so the conn deadline fires", got)
	}
}
