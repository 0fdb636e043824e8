// Package serve is the session-oriented detection server: the long-running
// deployment shape of Section VI-A, where a VA device continuously guards
// voice commands against thru-barrier attacks with the help of a paired
// wearable. Each session carries one VA recording (whole, or streamed in
// chunks) and the addresses of the wearables that heard the same command;
// the server fetches each wearable recording through the hardened
// syncnet.ReliableClient, aligns it with the Eq. (5) cross-correlation,
// and scores all of them in one core.Defense.InspectDevices call — all on
// a bounded worker pool with explicit load-shedding, so sustained probing
// (the BarrierBypass attack model) degrades service to typed rejections
// instead of unbounded goroutines.
//
// Architecture (DESIGN.md section 11):
//
//   - Admission: Submit places the session on a bounded queue. A full
//     queue sheds the session immediately with ErrOverloaded — the caller
//     learns about the overload in microseconds instead of joining an
//     invisible backlog.
//   - Worker pool: a fixed number of workers, each owning a private
//     core.Defense and a private per-address cache of ReliableClients,
//     so the hot path takes no shared locks.
//   - One session path: batch or streamed, with one wearable or several,
//     every session runs through the same worker function. A streamed
//     session runs its primary wearable through core.StreamInspector
//     (early exit included) before the rest are scored; every session
//     ends in one decision step that fuses the per-device verdicts
//     (core.FuseVerdicts) at the user's calibrated threshold. A session
//     without WearableAddrs differs in two ways only: its device's error
//     surfaces bare, never wrapped in core.ErrNoQuorum, and it records no
//     fusion.devices observation.
//   - Deadlines: every session gets a context deadline at admission.
//     Sessions that expire while queued are abandoned without wasting a
//     worker; in-flight fetches abort their retries and backoff sleeps
//     through syncnet.RequestRecordingContext.
//   - Determinism: the stochastic cross-domain sensing of session n is
//     driven by SessionSeed(Config.Seed, n) (or the request's pinned
//     RNGSeed), so any session can be replayed bit-exactly.
//   - Drain: Shutdown closes the front door (a wire.FrontDoor) first,
//     rejects every queued-but-unstarted session with ErrDraining, waits
//     for in-flight sessions to finish, then drains the door, which
//     half-closes lingering connections so final responses are still
//     delivered.
package serve

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"vibguard/internal/core"
	"vibguard/internal/profile"
	"vibguard/internal/syncnet"
)

// Typed admission and lifecycle errors. They are the server's load-shedding
// and drain contract: a caller can distinguish "try again later"
// (ErrOverloaded) from "this server is going away" (ErrDraining) from
// "your session took too long" (ErrSessionTimeout) without string matching.
var (
	// ErrOverloaded is returned by Submit when the admission queue is
	// full. The session was not enqueued; the caller owns the retry
	// decision.
	ErrOverloaded = errors.New("serve: overloaded, admission queue full")
	// ErrDraining is returned by Submit once Shutdown has begun, and
	// delivered to queued-but-unstarted sessions that the drain rejects.
	ErrDraining = errors.New("serve: server draining, session rejected")
	// ErrSessionTimeout is returned when a session's deadline expires
	// before its verdict is ready (whether still queued or mid-fetch).
	ErrSessionTimeout = errors.New("serve: session deadline exceeded")
	// ErrUserIDRequired is returned for a profile-backed session (one that
	// carries WearableAddrs) with an empty UserID. Multi-wearable fusion
	// and per-user calibration are keyed by user identity, and the routing
	// tier's legacy fallback — hashing WearableAddr when UserID is empty —
	// would scatter a multi-wearable user's sessions across nodes by
	// whichever address came first. The error crosses the wire typed
	// (code user_required).
	ErrUserIDRequired = errors.New("serve: profile-backed session needs a user id")
)

// Request is one detection session: a VA recording and the wearable that
// heard the same command.
type Request struct {
	// UserID identifies the wearable-paired user the session belongs to.
	// With the profile layer on, the server keys the user's calibrated
	// threshold by it. The routing tier consistent-hashes it to
	// pick the serving node (falling back to WearableAddr when empty), so
	// one user's sessions — and any per-user state a node caches — stay
	// on one node.
	UserID string
	// WearableAddr is the paired wearable agent's network address (the
	// user's primary wearable).
	WearableAddr string
	// WearableAddrs lists additional paired wearables (earbud, second
	// watch, …). Their recordings are scored with the primary's in one
	// core.Defense.InspectDevices call, each under its own seed, and the
	// verdicts fuse at the score level (core.FuseVerdicts). A session
	// carrying any is profile-backed and must set UserID
	// (ErrUserIDRequired otherwise).
	// On the wire the list travels in a backward-compatible trailing
	// extension of the request payload: a request without extras encodes
	// byte-identically to the pre-extension protocol.
	WearableAddrs []string
	// VARecording is the VA device's capture of the voice command.
	VARecording []float64
	// RNGSeed pins the session's stochastic cross-domain sensing; 0
	// derives a seed from (Config.Seed, session ID) instead.
	RNGSeed int64
}

// Config parameterizes a Server.
type Config struct {
	// NewDefense builds one worker's private detection pipeline. It is
	// called once per worker and must be safe to call concurrently.
	NewDefense func() (*core.Defense, error)
	// Workers is the worker-pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the admission queue (default 2×Workers). A full
	// queue sheds new sessions with ErrOverloaded.
	QueueDepth int
	// SessionTimeout is the per-session deadline from admission to
	// verdict (default 30s).
	SessionTimeout time.Duration
	// Seed drives per-session RNG derivation via SessionSeed.
	Seed int64
	// Dial overrides the transport dial of every wearable fetch (fault
	// injection, testing). Nil dials TCP.
	Dial syncnet.DialFunc
	// RetryPolicy bounds the transport retries of every wearable fetch.
	// The zero value uses syncnet.DefaultRetryPolicy.
	RetryPolicy syncnet.RetryPolicy
	// Stream configures the streamed-session pipeline (SubmitStream).
	// The zero value lets a MethodFull defense with a segmenter exit
	// early, on the evaluation schedule and confidence bound that core
	// fixes; DisableEarlyExit makes every streamed verdict the batch
	// fallback's.
	Stream core.StreamConfig
	// Profiles is the per-user profile store. Nil disables the profile
	// layer entirely: no calibrated thresholds, no device registration,
	// and every session runs at the defense's configured threshold —
	// existing deployments are bit-compatible.
	Profiles *profile.Store
}

// profileCacheSize bounds each worker's private LRU of effective per-user
// thresholds (used only when Config.Profiles is set).
const profileCacheSize = 1024

// withDefaults fills in defaults and validates the configuration.
func (c Config) withDefaults() (Config, error) {
	if c.NewDefense == nil {
		return c, fmt.Errorf("serve: config needs a NewDefense factory")
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.SessionTimeout <= 0 {
		c.SessionTimeout = 30 * time.Second
	}
	if c.RetryPolicy.MaxAttempts == 0 {
		c.RetryPolicy = syncnet.DefaultRetryPolicy()
	}
	if err := c.RetryPolicy.Validate(); err != nil {
		return c, err
	}
	// Build one throwaway Defense now so configuration errors surface at
	// construction, not inside the worker pool (same probe as
	// eval.NewParallelScorer).
	if _, err := c.NewDefense(); err != nil {
		return c, fmt.Errorf("serve: defense factory: %w", err)
	}
	return c, nil
}

// SessionSeed derives the RNG seed of a session from the server seed with
// the SplitMix64 finalizer — the same derivation scheme as eval.SampleSeed
// and faults.Mix, so per-session random streams are mutually decorrelated
// and depend only on (seed, session ID), never on which worker runs the
// session or in what order.
func SessionSeed(seed int64, sessionID uint64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(sessionID+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// deviceSeed derives the RNG seed of device i in a fused multi-wearable
// session from the session seed, with the same SplitMix64 finalizer but
// an XOR pre-whitening distinct from core's provisional-evaluation
// derivation. Device 0 keeps the session seed untouched, so the primary
// wearable scores under the session seed whether or not extras ride
// along.
func deviceSeed(seed int64, device uint64) int64 {
	if device == 0 {
		return seed
	}
	z := uint64(seed) ^ 0x5a5a5a5aa5a5a5a5 + 0x9e3779b97f4a7c15*device
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}
