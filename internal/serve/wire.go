package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"vibguard/internal/wire"
)

// The session payload codecs. Every session hop — client to router,
// router to node — carries these payloads inside internal/wire frames:
// requests and streamed chunks one way, verdicts, early verdicts and
// typed errors the other.

// --- Request payload -------------------------------------------------

// A request payload mirrors Request:
//
//	uvarint len + bytes  UserID (the routing/tenancy key)
//	uvarint len + bytes  WearableAddr
//	8 bytes              RNGSeed (int64 bits, little-endian)
//	uvarint count        VA sample count
//	count × 8 bytes      samples (float64 bits, little-endian)
//	extension            optional trailing block, see below
//
// The sample count is validated against the bytes actually present
// before the sample slice is allocated.
//
// The extension block is how the request payload grows without a version
// bump: it is appended only when a post-v1 field is actually present, so
// a request without any encodes byte-identically to the original
// protocol, and a v1 decoder reading a payload with one fails loudly
// (trailing bytes) rather than silently dropping fields. Its layout:
//
//	byte                 extension flags (bit 0: extra wearable addrs)
//	uvarint count        extra wearable addr count (bit 0 only)
//	count × string       extra wearable addrs (uvarint len + bytes each)
//
// Unknown extension flag bits are malformed — a decoder must never
// guess at bytes it cannot attribute.

// extWearableAddrs flags the extra-wearable-addrs extension field.
const extWearableAddrs = byte(1)

// AppendRequestPayload appends the encoded request to dst, growing dst
// at most once.
func AppendRequestPayload(dst []byte, req Request) []byte {
	need := 4*binary.MaxVarintLen64 + len(req.UserID) + len(req.WearableAddr) + 8 + 8*len(req.VARecording) + 1
	for _, addr := range req.WearableAddrs {
		need += binary.MaxVarintLen64 + len(addr)
	}
	if cap(dst)-len(dst) < need {
		dst = append(make([]byte, 0, len(dst)+need), dst...)
	}
	dst = wire.AppendString(dst, req.UserID)
	dst = wire.AppendString(dst, req.WearableAddr)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(req.RNGSeed))
	dst = wire.AppendSamples(dst, req.VARecording)
	if len(req.WearableAddrs) > 0 {
		dst = append(dst, extWearableAddrs)
		dst = binary.AppendUvarint(dst, uint64(len(req.WearableAddrs)))
		for _, addr := range req.WearableAddrs {
			dst = wire.AppendString(dst, addr)
		}
	}
	return dst
}

// DecodeRequestPayload decodes a request payload. The payload must be
// exactly consumed; trailing bytes are malformed.
func DecodeRequestPayload(p []byte) (Request, error) {
	var req Request
	var err error
	if req.UserID, p, err = wire.TakeString(p); err != nil {
		return Request{}, err
	}
	if req.WearableAddr, p, err = wire.TakeString(p); err != nil {
		return Request{}, err
	}
	if len(p) < 8 {
		return Request{}, fmt.Errorf("%w: truncated seed", wire.ErrMalformedFrame)
	}
	req.RNGSeed = int64(binary.LittleEndian.Uint64(p))
	p = p[8:]
	if req.VARecording, p, err = wire.TakeSamples(p); err != nil {
		return Request{}, err
	}
	if len(p) == 0 {
		return req, nil // pre-extension request
	}
	flags := p[0]
	p = p[1:]
	if flags&^extWearableAddrs != 0 {
		return Request{}, fmt.Errorf("%w: extension flags %#x", wire.ErrMalformedFrame, flags)
	}
	if flags&extWearableAddrs != 0 {
		addrCount, n, err := wire.UvarintAt(p, 0)
		if err != nil {
			return Request{}, fmt.Errorf("%w: wearable addr count", wire.ErrMalformedFrame)
		}
		p = p[n:]
		// Each addr needs at least its length byte, so the count bounds the
		// allocation against the bytes actually present.
		if addrCount == 0 || addrCount > uint64(len(p)) {
			return Request{}, fmt.Errorf("%w: %d wearable addrs in %d bytes", wire.ErrMalformedFrame, addrCount, len(p))
		}
		req.WearableAddrs = make([]string, 0, addrCount)
		for i := uint64(0); i < addrCount; i++ {
			var addr string
			if addr, p, err = wire.TakeString(p); err != nil {
				return Request{}, err
			}
			req.WearableAddrs = append(req.WearableAddrs, addr)
		}
	}
	if len(p) != 0 {
		return Request{}, fmt.Errorf("%w: %d trailing bytes", wire.ErrMalformedFrame, len(p))
	}
	return req, nil
}

// --- Verdict payload -------------------------------------------------

// A verdict payload carries the wire-visible subset of core.Verdict:
//
//	byte     flags (bit 0: attack)
//	8 bytes  score (float64 bits, little-endian)
//	varint   sync offset (zigzag-encoded, may be negative)
//	uvarint  span count (spans themselves stay server-side)

// wireVerdict is the wire-visible subset of a verdict.
type wireVerdict struct {
	Score      float64
	Attack     bool
	SyncOffset int
	Spans      int
}

// AppendVerdictPayload appends the encoded verdict to dst.
func AppendVerdictPayload(dst []byte, v wireVerdict) []byte {
	var flags byte
	if v.Attack {
		flags |= 1
	}
	dst = append(dst, flags)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Score))
	dst = binary.AppendVarint(dst, int64(v.SyncOffset))
	return binary.AppendUvarint(dst, uint64(v.Spans))
}

// DecodeVerdictPayload decodes a verdict payload.
func DecodeVerdictPayload(p []byte) (wireVerdict, error) {
	var v wireVerdict
	if len(p) < 9 {
		return v, fmt.Errorf("%w: truncated verdict", wire.ErrMalformedFrame)
	}
	v.Attack = p[0]&1 != 0
	v.Score = math.Float64frombits(binary.LittleEndian.Uint64(p[1:]))
	p = p[9:]
	off, n := binary.Varint(p)
	if n <= 0 {
		return v, fmt.Errorf("%w: sync offset", wire.ErrMalformedFrame)
	}
	v.SyncOffset = int(off)
	p = p[n:]
	spans, n, err := wire.UvarintAt(p, 0)
	if err != nil || spans > math.MaxInt32 {
		return v, fmt.Errorf("%w: span count", wire.ErrMalformedFrame)
	}
	v.Spans = int(spans)
	return v, nil
}

// --- Error payload ---------------------------------------------------

// An error payload is a typed session failure:
//
//	byte                 error-kind code (one of the code* constants)
//	uvarint len + bytes  node id that failed the session ("" when the
//	                     serving node itself answered; the router fills
//	                     it in so shed errors carry the node identity
//	                     across the extra hop)
//	uvarint len + bytes  error message

// Error-kind codes. Explicit constants, not iota: both ends may be
// rebuilt independently, so the numbering is part of the protocol. errCode
// (proto.go) classifies a session error onto them, and remoteError maps
// each back to its typed sentinel.
const (
	codeOverloaded   = byte(1)
	codeDraining     = byte(2)
	codeTimeout      = byte(3)
	codeTransport    = byte(4)
	codeWearable     = byte(5)
	codeNonFinite    = byte(6)
	codeBadRecording = byte(7)
	codeInternal     = byte(8)
	codeNodeLost     = byte(9)
	codeNoNodes      = byte(10)
	codeUserRequired = byte(11)
)

// AppendErrorPayload appends the encoded session failure to dst. The
// node identity is taken from a wrapping NodeError, if any.
func AppendErrorPayload(dst []byte, err error) []byte {
	node := ""
	var ne *NodeError
	if errors.As(err, &ne) {
		node = ne.Node
	}
	dst = append(dst, errCode(err))
	dst = wire.AppendString(dst, node)
	return wire.AppendString(dst, err.Error())
}

// DecodeErrorPayload decodes an error payload back into the matching
// typed error: the code maps to the same sentinel the server classified
// (errors.Is/As work across the wire), an unknown code degrades to a
// *RemoteError, and a non-empty node id wraps the result in a NodeError.
func DecodeErrorPayload(p []byte) (error, error) {
	if len(p) < 1 {
		return nil, fmt.Errorf("%w: empty error payload", wire.ErrMalformedFrame)
	}
	code := p[0]
	node, p, err := wire.TakeString(p[1:])
	if err != nil {
		return nil, err
	}
	msg, _, err := wire.TakeString(p)
	if err != nil {
		return nil, err
	}
	sessErr := remoteError(code, msg)
	if node != "" {
		sessErr = &NodeError{Node: node, Err: sessErr}
	}
	return sessErr, nil
}

// --- Chunk payload ---------------------------------------------------
//
// A chunk payload carries one streamed slice of the VA recording:
//
//	byte                 flags (bit 0: header chunk — session fields
//	                     follow; bit 1: final chunk of the stream)
//	header fields        only when the header flag is set: UserID,
//	                     WearableAddr (uvarint len + bytes each) and
//	                     RNGSeed (8 bytes, int64 bits, little-endian)
//	uvarint count        sample count (may be 0, e.g. a bare final chunk)
//	count × 8 bytes      samples (float64 bits, little-endian)
//
// The first chunk of every stream must set the header flag; the stream is
// closed by a chunk with the final flag (which may itself carry samples).

const (
	chunkFlagHeader = byte(1)
	chunkFlagFinal  = byte(2)
)

// wireChunk is one decoded stream chunk.
type wireChunk struct {
	Header  bool
	Final   bool
	Req     Request // UserID/WearableAddr/RNGSeed; only valid when Header
	Samples []float64
}

// AppendChunkPayload appends the encoded chunk to dst. Req's VARecording
// field is ignored; samples travel in the chunk's own sample block.
func AppendChunkPayload(dst []byte, c wireChunk) []byte {
	var flags byte
	if c.Header {
		flags |= chunkFlagHeader
	}
	if c.Final {
		flags |= chunkFlagFinal
	}
	dst = append(dst, flags)
	if c.Header {
		dst = wire.AppendString(dst, c.Req.UserID)
		dst = wire.AppendString(dst, c.Req.WearableAddr)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(c.Req.RNGSeed))
	}
	return wire.AppendSamples(dst, c.Samples)
}

// DecodeChunkPayload decodes a chunk payload with the same hardening as
// DecodeRequestPayload: the sample count is validated against the bytes
// actually present before the sample slice is allocated.
func DecodeChunkPayload(p []byte) (wireChunk, error) {
	var c wireChunk
	if len(p) < 1 {
		return c, fmt.Errorf("%w: empty chunk payload", wire.ErrMalformedFrame)
	}
	flags := p[0]
	if flags&^(chunkFlagHeader|chunkFlagFinal) != 0 {
		return c, fmt.Errorf("%w: chunk flags %#x", wire.ErrMalformedFrame, flags)
	}
	c.Header = flags&chunkFlagHeader != 0
	c.Final = flags&chunkFlagFinal != 0
	p = p[1:]
	var err error
	if c.Header {
		if c.Req.UserID, p, err = wire.TakeString(p); err != nil {
			return wireChunk{}, err
		}
		if c.Req.WearableAddr, p, err = wire.TakeString(p); err != nil {
			return wireChunk{}, err
		}
		if len(p) < 8 {
			return wireChunk{}, fmt.Errorf("%w: truncated seed", wire.ErrMalformedFrame)
		}
		c.Req.RNGSeed = int64(binary.LittleEndian.Uint64(p))
		p = p[8:]
	}
	if c.Samples, p, err = wire.TakeSamples(p); err != nil {
		return wireChunk{}, err
	}
	if len(p) != 0 {
		return wireChunk{}, fmt.Errorf("%w: %d trailing bytes", wire.ErrMalformedFrame, len(p))
	}
	return c, nil
}

// --- Early-verdict payload -------------------------------------------
//
// An early-verdict payload is a verdict payload followed by:
//
//	uvarint  consumed VA samples when the verdict fired

// AppendEarlyVerdictPayload appends the encoded early verdict to dst.
func AppendEarlyVerdictPayload(dst []byte, v wireVerdict, consumed int) []byte {
	dst = AppendVerdictPayload(dst, v)
	return binary.AppendUvarint(dst, uint64(consumed))
}

// DecodeEarlyVerdictPayload decodes an early-verdict payload.
func DecodeEarlyVerdictPayload(p []byte) (wireVerdict, int, error) {
	v, err := DecodeVerdictPayload(p)
	if err != nil {
		return v, 0, err
	}
	// Re-walk the verdict prefix to find the consumed field. The verdict
	// payload is flags+score (9 bytes), a varint, and a uvarint.
	off := 9
	_, n := binary.Varint(p[off:])
	off += n
	_, n = binary.Uvarint(p[off:])
	off += n
	consumed, _, err := wire.UvarintAt(p, off)
	if err != nil || consumed > wire.MaxFramePayload {
		return v, 0, fmt.Errorf("%w: consumed count", wire.ErrMalformedFrame)
	}
	return v, int(consumed), nil
}
