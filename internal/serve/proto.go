package serve

import (
	"errors"
	"fmt"

	"vibguard/internal/core"
	"vibguard/internal/detector"
	"vibguard/internal/syncnet"
)

// The typed-sentinel mapping of the wire protocol: failures cross the
// wire as stable error codes (the code* constants of wire.go) that the
// client maps back to the same typed sentinels, so errors.Is/As work
// across the wire exactly as they do in-process.

// Routing-tier sentinels. They live here, next to the rest of the wire
// error vocabulary, because the wire protocol must carry them between a
// router front-door and its clients; internal/router returns them.
var (
	// ErrNodeLost reports that the serving node died (or its link reset)
	// while the session was in flight. The session's verdict, if any, is
	// unrecoverable; the caller owns the retry decision.
	ErrNodeLost = errors.New("serve: node lost mid-session")
	// ErrNoNodes reports that no healthy node was available to take the
	// session.
	ErrNoNodes = errors.New("serve: no healthy nodes")
)

// NodeError attributes a session failure to a named serving node — the
// router wraps every per-node failure in one, so a shed (ErrOverloaded,
// ErrDraining) or a lost node surfaces to the router's client with the
// node identity attached. Unwrap exposes the inner sentinel to
// errors.Is/As.
type NodeError struct {
	// Node is the failing node's registered id.
	Node string
	// Err is the underlying typed error.
	Err error
}

// Error implements the error interface.
func (e *NodeError) Error() string { return "node " + e.Node + ": " + e.Err.Error() }

// Unwrap exposes the wrapped error.
func (e *NodeError) Unwrap() error { return e.Err }

// errCode classifies a session error for the wire.
func errCode(err error) byte {
	var wearErr *syncnet.WearableError
	var issue *core.RecordingIssue
	switch {
	case errors.Is(err, ErrNodeLost):
		return codeNodeLost
	case errors.Is(err, ErrNoNodes):
		return codeNoNodes
	case errors.Is(err, ErrUserIDRequired):
		return codeUserRequired
	case errors.Is(err, ErrOverloaded):
		return codeOverloaded
	case errors.Is(err, ErrDraining):
		return codeDraining
	case errors.Is(err, ErrSessionTimeout):
		return codeTimeout
	case errors.Is(err, syncnet.ErrRetriesExhausted):
		return codeTransport
	case errors.As(err, &wearErr):
		return codeWearable
	case errors.Is(err, detector.ErrNonFiniteScore):
		return codeNonFinite
	case errors.As(err, &issue):
		return codeBadRecording
	default:
		return codeInternal
	}
}

// RemoteError is a server-side session failure whose code has no local
// typed equivalent (or an unrecognized code from a newer server).
type RemoteError struct {
	// Code is the wire error code.
	Code byte
	// Msg is the server's error text.
	Msg string
}

// Error implements the error interface.
func (e *RemoteError) Error() string { return fmt.Sprintf("serve: remote error %d: %s", e.Code, e.Msg) }

// remoteError maps a wire failure back to the matching typed error, so
// errors.Is/As work across the wire exactly as they do in-process.
func remoteError(code byte, msg string) error {
	switch code {
	case codeOverloaded:
		return fmt.Errorf("%w (remote: %s)", ErrOverloaded, msg)
	case codeDraining:
		return fmt.Errorf("%w (remote: %s)", ErrDraining, msg)
	case codeTimeout:
		return fmt.Errorf("%w (remote: %s)", ErrSessionTimeout, msg)
	case codeTransport:
		return fmt.Errorf("%w (remote: %s)", syncnet.ErrRetriesExhausted, msg)
	case codeNonFinite:
		return fmt.Errorf("%w (remote: %s)", detector.ErrNonFiniteScore, msg)
	case codeWearable:
		return &syncnet.WearableError{Msg: msg}
	case codeNodeLost:
		return fmt.Errorf("%w (remote: %s)", ErrNodeLost, msg)
	case codeNoNodes:
		return fmt.Errorf("%w (remote: %s)", ErrNoNodes, msg)
	case codeUserRequired:
		return fmt.Errorf("%w (remote: %s)", ErrUserIDRequired, msg)
	default:
		return &RemoteError{Code: code, Msg: msg}
	}
}
