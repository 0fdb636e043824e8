package syncnet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"vibguard/internal/obs"
)

// ReliableClient instrumentation: transport attempt counts, redials,
// backoff sleeps (count + slept duration), per-attempt latency, and the
// two terminal outcomes retries cannot help (wearable application errors,
// exhausted policies). Recording is lock-free and allocation-free.
var (
	metClientAttempts  = obs.Default().Counter("syncnet.client.attempts")
	metClientRedials   = obs.Default().Counter("syncnet.client.redials")
	metClientBackoffs  = obs.Default().Counter("syncnet.client.backoffs")
	metClientWearErrs  = obs.Default().Counter("syncnet.client.wearable_errors")
	metClientExhausted = obs.Default().Counter("syncnet.client.retries_exhausted")
	histClientBackoff  = obs.Default().Histogram("syncnet.client.backoff_seconds")
	stageClientAttempt = obs.Default().StageTimer("syncnet.client.attempt")
)

// DialFunc abstracts the transport dial so callers (and the fault-injection
// layer of internal/faults) can interpose on connection establishment. The
// default dials TCP with a per-attempt timeout.
type DialFunc func(addr string, timeout time.Duration) (net.Conn, error)

func tcpDial(addr string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, timeout)
}

// ErrRetriesExhausted is returned when every transport attempt of a retried
// operation failed; it wraps the last attempt's error.
var ErrRetriesExhausted = errors.New("syncnet: retries exhausted")

// WearableError is an application-level failure reported by the wearable
// itself (a FrameWearableError reply): the link works, so transport retries cannot
// help and ReliableClient returns it immediately.
type WearableError struct {
	// Msg is the wearable's failure description.
	Msg string
}

// Error implements the error interface.
func (e *WearableError) Error() string { return "syncnet: wearable error: " + e.Msg }

// RetryPolicy bounds transport retries with exponential backoff. The VA
// device and the wearable share a consumer WiFi network (Section VI-A), so
// transient dial failures and mid-stream resets are expected; the paper's
// pipeline only needs the recording to arrive within the command-handling
// window, which the bounded attempt count and MaxDelay cap guarantee.
type RetryPolicy struct {
	// MaxAttempts is the total number of transport attempts (>= 1).
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth.
	MaxDelay time.Duration
	// Multiplier grows the delay between consecutive attempts (>= 1).
	Multiplier float64
}

// DefaultRetryPolicy returns the production policy: 4 attempts, 25 ms base
// delay doubling up to 500 ms (worst-case added latency ~175 ms, within the
// ~100 ms network-delay budget the Eq. (5) alignment already tolerates).
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseDelay: 25 * time.Millisecond, MaxDelay: 500 * time.Millisecond, Multiplier: 2}
}

// Validate checks the policy.
func (p RetryPolicy) Validate() error {
	if p.MaxAttempts < 1 {
		return fmt.Errorf("syncnet: retry attempts %d must be >= 1", p.MaxAttempts)
	}
	if p.BaseDelay < 0 || p.MaxDelay < 0 {
		return fmt.Errorf("syncnet: negative retry delay")
	}
	if p.Multiplier < 1 {
		return fmt.Errorf("syncnet: retry multiplier %v must be >= 1", p.Multiplier)
	}
	return nil
}

// Backoff returns the delay to sleep before attempt number attempt+2, i.e.
// Backoff(0) is the delay after the first failure. The sequence is
// deterministic: BaseDelay * Multiplier^attempt, capped at MaxDelay.
func (p RetryPolicy) Backoff(attempt int) time.Duration {
	if attempt < 0 {
		attempt = 0
	}
	d := float64(p.BaseDelay)
	for i := 0; i < attempt; i++ {
		d *= p.Multiplier
		if p.MaxDelay > 0 && d >= float64(p.MaxDelay) {
			return p.MaxDelay
		}
	}
	if p.MaxDelay > 0 && d > float64(p.MaxDelay) {
		return p.MaxDelay
	}
	return time.Duration(d)
}

// attemptDialTimeout and attemptRequestTimeout bound one transport
// attempt's dial and request, each clipped to the caller's context.
const (
	attemptDialTimeout    = 2 * time.Second
	attemptRequestTimeout = 10 * time.Second
)

// ReliableClient is the hardened VA-side client: it owns the agent address
// rather than a single connection, lazily (re)dials, applies per-attempt
// deadlines to both the dial and the request, and retries transport
// failures with bounded exponential backoff. A request that fails mid-frame
// abandons the connection entirely — after a partial or mismatched frame
// the stream state is unknowable — and the next attempt starts on a fresh
// one.
//
// Application-level failures (WearableError) are returned without retrying:
// the link demonstrably works, so backing off cannot change the outcome.
type ReliableClient struct {
	addr   string
	dial   DialFunc
	policy RetryPolicy

	mu       sync.Mutex
	client   *VAClient
	attempts uint64
	redials  uint64
}

// ClientOption configures a ReliableClient.
type ClientOption func(*ReliableClient)

// WithRetryPolicy overrides the retry policy.
func WithRetryPolicy(p RetryPolicy) ClientOption {
	return func(rc *ReliableClient) { rc.policy = p }
}

// WithDialFunc overrides the transport dial (fault injection, testing).
func WithDialFunc(d DialFunc) ClientOption {
	return func(rc *ReliableClient) {
		if d != nil {
			rc.dial = d
		}
	}
}

// NewReliableClient creates a hardened client for the agent address. No
// connection is made until the first request.
func NewReliableClient(addr string, opts ...ClientOption) (*ReliableClient, error) {
	rc := &ReliableClient{
		addr:   addr,
		dial:   tcpDial,
		policy: DefaultRetryPolicy(),
	}
	for _, opt := range opts {
		opt(rc)
	}
	if err := rc.policy.Validate(); err != nil {
		return nil, err
	}
	return rc, nil
}

// Attempts returns the total number of transport attempts made.
func (rc *ReliableClient) Attempts() uint64 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.attempts
}

// Redials returns how many times the client had to establish a connection.
func (rc *ReliableClient) Redials() uint64 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.redials
}

// Close closes the current connection, if any. The client remains usable: a
// later request simply redials.
func (rc *ReliableClient) Close() error {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.client == nil {
		return nil
	}
	err := rc.client.Close()
	rc.client = nil
	return err
}

// RequestRecording triggers the wearable and returns its recording,
// retrying transport failures per the policy. It returns
// ErrRetriesExhausted (wrapping the last transport error) when every
// attempt failed, or the WearableError as-is when the wearable itself
// reported a failure.
func (rc *ReliableClient) RequestRecording() ([]float64, error) {
	return rc.RequestRecordingContext(context.Background())
}

// RequestRecordingContext is RequestRecording bounded by a context: the
// session-oriented server gives every session a deadline, and a fetch must
// stop burning transport attempts (and abort a backoff sleep immediately)
// once that deadline is gone. Cancellation is checked before every attempt
// and during every backoff sleep, and the per-attempt dial/request
// deadlines are clipped so no single attempt outlives the context. On
// cancellation the context's error is returned (wrapping the last
// transport error, if any, for diagnosis).
func (rc *ReliableClient) RequestRecordingContext(ctx context.Context) ([]float64, error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	var lastErr error
	for attempt := 0; attempt < rc.policy.MaxAttempts; attempt++ {
		if attempt > 0 {
			backoff := rc.policy.Backoff(attempt - 1)
			metClientBackoffs.Inc()
			histClientBackoff.Observe(backoff.Seconds())
			if err := sleepCtx(ctx, backoff); err != nil {
				return nil, ctxError(err, lastErr)
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, ctxError(err, lastErr)
		}
		rc.attempts++
		metClientAttempts.Inc()
		attemptStart := time.Now()
		if rc.client == nil {
			client, err := dialWearableVia(rc.dial, rc.addr, clipTimeout(ctx, attemptDialTimeout))
			if err != nil {
				lastErr = err
				stageClientAttempt.ObserveSince(attemptStart)
				continue
			}
			rc.redials++
			metClientRedials.Inc()
			rc.client = client
		}
		samples, err := rc.client.RequestRecording(clipTimeout(ctx, attemptRequestTimeout))
		stageClientAttempt.ObserveSince(attemptStart)
		if err == nil {
			return samples, nil
		}
		var wearErr *WearableError
		if errors.As(err, &wearErr) {
			metClientWearErrs.Inc()
			return nil, err
		}
		lastErr = err
		_ = rc.client.Close()
		rc.client = nil
	}
	metClientExhausted.Inc()
	return nil, fmt.Errorf("%w after %d attempts: %v", ErrRetriesExhausted, rc.policy.MaxAttempts, lastErr)
}

// sleepCtx sleeps for d or until the context is done, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// ctxError wraps a context cancellation with the last transport error seen
// before it, so a timed-out session still reports what the link was doing.
func ctxError(ctxErr, lastErr error) error {
	if lastErr == nil {
		return ctxErr
	}
	return fmt.Errorf("%w (last transport error: %v)", ctxErr, lastErr)
}

// clipTimeout bounds a per-attempt timeout by the context deadline, so an
// attempt started just before the deadline cannot run long past it.
func clipTimeout(ctx context.Context, timeout time.Duration) time.Duration {
	dl, ok := ctx.Deadline()
	if !ok {
		return timeout
	}
	remaining := time.Until(dl)
	if remaining <= 0 {
		// The deadline just passed; keep the attempt bounded (a
		// non-positive value would disable the connection deadline).
		return time.Nanosecond
	}
	if remaining < timeout {
		return remaining
	}
	return timeout
}
