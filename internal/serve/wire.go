package serve

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// The session wire protocol: length-prefixed binary frames with a
// versioned fixed header, varint lengths, and explicit error-kind codes.
// It replaces the gob front-end, whose per-connection type negotiation
// and reflection walk are the wrong cost shape for millions of short
// sessions (every fresh connection re-paid the type descriptors before
// the first verdict). A frame is:
//
//	byte 0   protocol version (WireVersion)
//	byte 1   frame type (FrameRequest … FrameVerdictEarly)
//	uvarint  stream id — many concurrent sessions multiplex one TCP
//	         connection, each tagged with the stream that owns it
//	uvarint  payload length (0 … MaxFramePayload)
//	payload  frame-type-specific binary payload
//
// Decoding is hardened for fuzzing: unknown versions, unknown frame
// types, oversized or overlong-varint lengths, and truncated frames all
// surface as typed errors, and no length is trusted before it is checked
// against MaxFramePayload (a hostile 2^60 length never allocates).
// Multi-byte integers inside payloads are little-endian; float64s travel
// as IEEE-754 bits.

// WireVersion is the protocol version stamped on every frame. A decoder
// rejects frames from any other version with ErrUnknownVersion.
const WireVersion = 1

// Frame types.
const (
	// FrameRequest carries one session submission (request payload).
	FrameRequest = byte(1)
	// FrameVerdict carries one successful verdict (verdict payload).
	FrameVerdict = byte(2)
	// FrameError carries one typed session failure (error payload).
	FrameError = byte(3)
	// FramePing and FramePong are the health-probe pair; their payloads
	// are empty. Servers answer a ping by echoing the stream id back on a
	// pong.
	FramePing = byte(4)
	FramePong = byte(5)
	// FrameChunk carries one streamed VA audio chunk (chunk payload). The
	// first chunk of a stream sets the header flag and carries the session
	// fields of a request; the last sets the final flag. Chunks interleave
	// freely with other streams' frames on the shared connection.
	FrameChunk = byte(6)
	// FrameVerdictEarly carries a verdict reached before the stream ended
	// (verdict payload plus the consumed-sample count). The sender stops
	// reading the stream's remaining chunks after it.
	FrameVerdictEarly = byte(7)
)

// MaxFramePayload caps a frame payload. The largest legitimate frame is a
// request carrying a VA recording (8 bytes per sample: a minute of 16 kHz
// audio is ~7.7 MiB), so 64 MiB leaves generous headroom while keeping a
// hostile length from allocating unbounded memory.
const MaxFramePayload = 64 << 20

// Typed frame-decode errors. They are the fuzzing contract: any byte
// stream either decodes or fails with one of these (or io.EOF /
// io.ErrUnexpectedEOF for clean and mid-frame truncation) — never a panic
// and never an oversized allocation.
var (
	// ErrUnknownVersion is returned for a frame whose version byte is not
	// WireVersion.
	ErrUnknownVersion = errors.New("serve: unknown wire protocol version")
	// ErrUnknownFrameType is returned for a frame whose type byte is not
	// one of the Frame* constants.
	ErrUnknownFrameType = errors.New("serve: unknown frame type")
	// ErrFrameTooLarge is returned when a frame declares a payload longer
	// than MaxFramePayload. Nothing is allocated for such a frame.
	ErrFrameTooLarge = errors.New("serve: frame payload exceeds limit")
	// ErrMalformedFrame is returned for varints that overflow or payloads
	// whose internal structure is inconsistent with their length.
	ErrMalformedFrame = errors.New("serve: malformed frame")
)

// Frame is one decoded wire frame.
type Frame struct {
	// Type is one of the Frame* constants.
	Type byte
	// Stream tags the session this frame belongs to on its connection.
	Stream uint64
	// Payload is the frame-type-specific body (nil for ping/pong).
	Payload []byte
}

// AppendFrame appends the encoded frame to dst and returns the extended
// slice. Encoding never fails for payloads within MaxFramePayload.
func AppendFrame(dst []byte, f Frame) []byte {
	dst = append(dst, WireVersion, f.Type)
	dst = binary.AppendUvarint(dst, f.Stream)
	dst = binary.AppendUvarint(dst, uint64(len(f.Payload)))
	return append(dst, f.Payload...)
}

// WriteFrame encodes the frame to w in one Write call.
func WriteFrame(w io.Writer, f Frame) error {
	if len(f.Payload) > MaxFramePayload {
		return ErrFrameTooLarge
	}
	buf := make([]byte, 0, 2+2*binary.MaxVarintLen64+len(f.Payload))
	if _, err := w.Write(AppendFrame(buf, f)); err != nil {
		return err
	}
	return nil
}

// ReadFrame decodes one frame from br. A clean EOF at a frame boundary
// returns io.EOF; truncation inside a frame returns io.ErrUnexpectedEOF.
// The payload length is validated against MaxFramePayload before any
// allocation.
func ReadFrame(br *bufio.Reader) (Frame, error) {
	version, err := br.ReadByte()
	if err != nil {
		return Frame{}, err // io.EOF: clean end of stream
	}
	if version != WireVersion {
		return Frame{}, fmt.Errorf("%w: %d", ErrUnknownVersion, version)
	}
	typ, err := br.ReadByte()
	if err != nil {
		return Frame{}, truncated(err)
	}
	if typ < FrameRequest || typ > FrameVerdictEarly {
		return Frame{}, fmt.Errorf("%w: %d", ErrUnknownFrameType, typ)
	}
	stream, err := readUvarint(br)
	if err != nil {
		return Frame{}, err
	}
	length, err := readUvarint(br)
	if err != nil {
		return Frame{}, err
	}
	if length > MaxFramePayload {
		return Frame{}, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, length)
	}
	f := Frame{Type: typ, Stream: stream}
	if length > 0 {
		f.Payload = make([]byte, length)
		if _, err := io.ReadFull(br, f.Payload); err != nil {
			return Frame{}, truncated(err)
		}
	}
	return f, nil
}

// DecodeFrame decodes one frame from the head of data and returns the
// number of bytes consumed. It is the fuzzing entry point: every failure
// is one of the typed errors above (truncation maps to
// io.ErrUnexpectedEOF), and a declared length is checked against both
// MaxFramePayload and the bytes actually present before allocating.
func DecodeFrame(data []byte) (Frame, int, error) {
	if len(data) == 0 {
		return Frame{}, 0, io.EOF
	}
	if data[0] != WireVersion {
		return Frame{}, 0, fmt.Errorf("%w: %d", ErrUnknownVersion, data[0])
	}
	if len(data) < 2 {
		return Frame{}, 0, io.ErrUnexpectedEOF
	}
	typ := data[1]
	if typ < FrameRequest || typ > FrameVerdictEarly {
		return Frame{}, 0, fmt.Errorf("%w: %d", ErrUnknownFrameType, typ)
	}
	off := 2
	stream, n, err := uvarintAt(data, off)
	if err != nil {
		return Frame{}, 0, err
	}
	off += n
	length, n, err := uvarintAt(data, off)
	if err != nil {
		return Frame{}, 0, err
	}
	off += n
	if length > MaxFramePayload {
		return Frame{}, 0, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, length)
	}
	if uint64(len(data)-off) < length {
		return Frame{}, 0, io.ErrUnexpectedEOF
	}
	f := Frame{Type: typ, Stream: stream}
	if length > 0 {
		f.Payload = make([]byte, length)
		copy(f.Payload, data[off:off+int(length)])
	}
	return f, off + int(length), nil
}

// readUvarint reads a varint, mapping overflow to ErrMalformedFrame and
// truncation to io.ErrUnexpectedEOF.
func readUvarint(br *bufio.Reader) (uint64, error) {
	v, err := binary.ReadUvarint(br)
	if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, io.ErrUnexpectedEOF
		}
		return 0, fmt.Errorf("%w: %v", ErrMalformedFrame, err)
	}
	return v, nil
}

// uvarintAt decodes a varint at data[off:], with the same error mapping.
func uvarintAt(data []byte, off int) (uint64, int, error) {
	if off >= len(data) {
		return 0, 0, io.ErrUnexpectedEOF
	}
	v, n := binary.Uvarint(data[off:])
	if n > 0 {
		return v, n, nil
	}
	if n == 0 {
		return 0, 0, io.ErrUnexpectedEOF
	}
	return 0, 0, fmt.Errorf("%w: uvarint overflow", ErrMalformedFrame)
}

// truncated maps an io error inside a frame to io.ErrUnexpectedEOF.
func truncated(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

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

// AppendRequestPayload appends the encoded request to dst.
func AppendRequestPayload(dst []byte, req Request) []byte {
	dst = appendString(dst, req.UserID)
	dst = appendString(dst, req.WearableAddr)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(req.RNGSeed))
	dst = binary.AppendUvarint(dst, uint64(len(req.VARecording)))
	for _, s := range req.VARecording {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s))
	}
	if len(req.WearableAddrs) > 0 {
		dst = append(dst, extWearableAddrs)
		dst = binary.AppendUvarint(dst, uint64(len(req.WearableAddrs)))
		for _, addr := range req.WearableAddrs {
			dst = appendString(dst, addr)
		}
	}
	return dst
}

// DecodeRequestPayload decodes a request payload. The payload must be
// exactly consumed; trailing bytes are malformed.
func DecodeRequestPayload(p []byte) (Request, error) {
	var req Request
	var err error
	if req.UserID, p, err = takeString(p); err != nil {
		return Request{}, err
	}
	if req.WearableAddr, p, err = takeString(p); err != nil {
		return Request{}, err
	}
	if len(p) < 8 {
		return Request{}, fmt.Errorf("%w: truncated seed", ErrMalformedFrame)
	}
	req.RNGSeed = int64(binary.LittleEndian.Uint64(p))
	p = p[8:]
	count, n, err := uvarintAt(p, 0)
	if err != nil {
		return Request{}, fmt.Errorf("%w: sample count", ErrMalformedFrame)
	}
	p = p[n:]
	if uint64(len(p)) < count*8 || count > MaxFramePayload/8 {
		return Request{}, fmt.Errorf("%w: %d samples in %d payload bytes", ErrMalformedFrame, count, len(p))
	}
	if count > 0 {
		req.VARecording = make([]float64, count)
		for i := range req.VARecording {
			req.VARecording[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[i*8:]))
		}
		p = p[count*8:]
	}
	if len(p) == 0 {
		return req, nil // pre-extension request
	}
	flags := p[0]
	p = p[1:]
	if flags&^extWearableAddrs != 0 {
		return Request{}, fmt.Errorf("%w: extension flags %#x", ErrMalformedFrame, flags)
	}
	if flags&extWearableAddrs != 0 {
		addrCount, n, err := uvarintAt(p, 0)
		if err != nil {
			return Request{}, fmt.Errorf("%w: wearable addr count", ErrMalformedFrame)
		}
		p = p[n:]
		// Each addr needs at least its length byte, so the count bounds the
		// allocation against the bytes actually present.
		if addrCount == 0 || addrCount > uint64(len(p)) {
			return Request{}, fmt.Errorf("%w: %d wearable addrs in %d bytes", ErrMalformedFrame, addrCount, len(p))
		}
		req.WearableAddrs = make([]string, 0, addrCount)
		for i := uint64(0); i < addrCount; i++ {
			var addr string
			if addr, p, err = takeString(p); err != nil {
				return Request{}, err
			}
			req.WearableAddrs = append(req.WearableAddrs, addr)
		}
	}
	if len(p) != 0 {
		return Request{}, fmt.Errorf("%w: %d trailing bytes", ErrMalformedFrame, len(p))
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
		return v, fmt.Errorf("%w: truncated verdict", ErrMalformedFrame)
	}
	v.Attack = p[0]&1 != 0
	v.Score = math.Float64frombits(binary.LittleEndian.Uint64(p[1:]))
	p = p[9:]
	off, n := binary.Varint(p)
	if n <= 0 {
		return v, fmt.Errorf("%w: sync offset", ErrMalformedFrame)
	}
	v.SyncOffset = int(off)
	p = p[n:]
	spans, n, err := uvarintAt(p, 0)
	if err != nil || spans > math.MaxInt32 {
		return v, fmt.Errorf("%w: span count", ErrMalformedFrame)
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
	dst = appendString(dst, node)
	return appendString(dst, err.Error())
}

// DecodeErrorPayload decodes an error payload back into the matching
// typed error: the code maps to the same sentinel the server classified
// (errors.Is/As work across the wire), an unknown code degrades to a
// *RemoteError, and a non-empty node id wraps the result in a NodeError.
func DecodeErrorPayload(p []byte) (error, error) {
	if len(p) < 1 {
		return nil, fmt.Errorf("%w: empty error payload", ErrMalformedFrame)
	}
	code := p[0]
	node, p, err := takeString(p[1:])
	if err != nil {
		return nil, err
	}
	msg, _, err := takeString(p)
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
		dst = appendString(dst, c.Req.UserID)
		dst = appendString(dst, c.Req.WearableAddr)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(c.Req.RNGSeed))
	}
	dst = binary.AppendUvarint(dst, uint64(len(c.Samples)))
	for _, s := range c.Samples {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s))
	}
	return dst
}

// DecodeChunkPayload decodes a chunk payload with the same hardening as
// DecodeRequestPayload: the sample count is validated against the bytes
// actually present before the sample slice is allocated.
func DecodeChunkPayload(p []byte) (wireChunk, error) {
	var c wireChunk
	if len(p) < 1 {
		return c, fmt.Errorf("%w: empty chunk payload", ErrMalformedFrame)
	}
	flags := p[0]
	if flags&^(chunkFlagHeader|chunkFlagFinal) != 0 {
		return c, fmt.Errorf("%w: chunk flags %#x", ErrMalformedFrame, flags)
	}
	c.Header = flags&chunkFlagHeader != 0
	c.Final = flags&chunkFlagFinal != 0
	p = p[1:]
	var err error
	if c.Header {
		if c.Req.UserID, p, err = takeString(p); err != nil {
			return wireChunk{}, err
		}
		if c.Req.WearableAddr, p, err = takeString(p); err != nil {
			return wireChunk{}, err
		}
		if len(p) < 8 {
			return wireChunk{}, fmt.Errorf("%w: truncated seed", ErrMalformedFrame)
		}
		c.Req.RNGSeed = int64(binary.LittleEndian.Uint64(p))
		p = p[8:]
	}
	count, n, err := uvarintAt(p, 0)
	if err != nil {
		return wireChunk{}, fmt.Errorf("%w: chunk sample count", ErrMalformedFrame)
	}
	p = p[n:]
	if uint64(len(p)) != count*8 || count > MaxFramePayload/8 {
		return wireChunk{}, fmt.Errorf("%w: %d samples in %d payload bytes", ErrMalformedFrame, count, len(p))
	}
	if count > 0 {
		c.Samples = make([]float64, count)
		for i := range c.Samples {
			c.Samples[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[i*8:]))
		}
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
	consumed, _, err := uvarintAt(p, off)
	if err != nil || consumed > MaxFramePayload {
		return v, 0, fmt.Errorf("%w: consumed count", ErrMalformedFrame)
	}
	return v, int(consumed), nil
}

// appendString appends a uvarint-length-prefixed string to dst.
func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// takeString decodes a length-prefixed string from the head of p and
// returns the remainder. The length is checked against the bytes present
// before any copy.
func takeString(p []byte) (string, []byte, error) {
	n, sz, err := uvarintAt(p, 0)
	if err != nil {
		return "", nil, fmt.Errorf("%w: string length", ErrMalformedFrame)
	}
	p = p[sz:]
	if uint64(len(p)) < n {
		return "", nil, fmt.Errorf("%w: string of %d bytes in %d remaining", ErrMalformedFrame, n, len(p))
	}
	return string(p[:n]), p[n:], nil
}
