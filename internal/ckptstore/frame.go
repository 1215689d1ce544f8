// Package ckptstore is a deterministic, simulated checkpoint-store
// service: a leader/follower replication group fronted by an admission
// controller, running entirely on internal/des virtual time. Many
// clients (one per rank) speak a small binary frame protocol to a
// frontend that batches segment Puts, replicates them to followers via
// quorum writes, sheds load with typed overload errors when saturated,
// degrades gracefully as replicas fail (sync-replicate →
// async-replicate → local-spill → refuse), and promotes the freshest
// follower when the leader crashes — resuming from the last
// quorum-acknowledged segment with ckpt.VerifyChain choosing the
// recovery line.
//
// The service exposes storage.Store through Client, so every existing
// consumer — the autonomic supervisor, two-phase commit, the chaos
// driver, ResilientStore retries — composes unchanged.
package ckptstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"

	"repro/internal/storage"
)

// ErrBadFrame reports a service frame that does not parse: wrong magic,
// unknown version or op, truncated fields, or trailing bytes.
var ErrBadFrame = errors.New("ckptstore: malformed service frame")

// frameMagic opens every service frame ("CKSF": ChecKpoint Service
// Frame).
const frameMagic = "CKSF"

// frameVersion is the only wire version this codec accepts. Version 2
// carries no per-request deadline: a put's deadline is the service's
// Config.OpDeadline.
const frameVersion = 2

// Frame kinds.
const (
	// KindRequest marks a client→service frame.
	KindRequest = 0
	// KindResponse marks a service→client frame.
	KindResponse = 1
)

// Op identifies the storage operation a frame carries.
type Op uint8

// Service operations, one per storage.Store method.
const (
	OpPut Op = iota + 1
	OpGet
	OpDelete
	OpKeys
	OpSize
)

// String implements fmt.Stringer for diagnostics.
func (o Op) String() string {
	switch o {
	case OpPut:
		return "put"
	case OpGet:
		return "get"
	case OpDelete:
		return "delete"
	case OpKeys:
		return "keys"
	case OpSize:
		return "size"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Status is the outcome code carried by response frames. It is the wire
// projection of the storage error taxonomy: clients map it back to the
// sentinel errors with Err, so errors.Is classification survives the
// round trip through the service.
type Status uint8

// Response status codes.
const (
	StatusOK Status = iota
	StatusNotFound
	StatusCorrupt
	StatusUnavailable
	StatusTransient
	StatusOverload
	StatusDeadline
)

// statusOf maps a storage-taxonomy error to its wire status. Overload
// must be checked before the generic transient class: ErrOverload wraps
// ErrTransient, and the more specific label is the one backpressure
// telemetry needs.
func statusOf(err error) Status {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, storage.ErrOverload):
		return StatusOverload
	case errors.Is(err, storage.ErrDeadlineExceeded):
		return StatusDeadline
	case errors.Is(err, storage.ErrNotFound):
		return StatusNotFound
	case errors.Is(err, storage.ErrCorrupt):
		return StatusCorrupt
	case errors.Is(err, storage.ErrTransient):
		return StatusTransient
	default:
		return StatusUnavailable
	}
}

// Err maps a wire status back to the storage error taxonomy, preserving
// the classification the service computed: overload stays transient
// (retryable), deadline stays permanent. The error is formatted only if
// someone reads its text — a saturated service refuses most puts, and
// most refusals are retried or counted, never printed.
func (st Status) Err(op Op, key string) error {
	if st == StatusOK {
		return nil
	}
	return &statusError{op: op, key: key, st: st}
}

// statusError is a non-OK Status on the client side: its text is
// "ckptstore: <op> <quoted key>: <sentinel>" and it wraps the status's
// sentinel.
type statusError struct {
	op  Op
	key string
	st  Status
}

func (e *statusError) Error() string {
	return "ckptstore: " + e.op.String() + " " + strconv.Quote(e.key) + ": " + e.Unwrap().Error()
}

func (e *statusError) Unwrap() error {
	switch e.st {
	case StatusNotFound:
		return storage.ErrNotFound
	case StatusCorrupt:
		return storage.ErrCorrupt
	case StatusTransient:
		return storage.ErrTransient
	case StatusOverload:
		return storage.ErrOverload
	case StatusDeadline:
		return storage.ErrDeadlineExceeded
	default:
		return storage.ErrUnavailable
	}
}

// Frame is one request or response on the client↔service wire.
//
// Layout (little-endian): a header — fixed fields, the key, the payload
// length — then the payload:
//
//	magic    [4]byte  "CKSF"
//	version  uint8    2
//	kind     uint8    0 = request, 1 = response
//	op       uint8    OpPut..OpSize
//	status   uint8    response outcome (0 in requests)
//	client   uint32   issuing client id
//	id       uint64   per-client request sequence number
//	keylen   uint16   + key bytes
//	paylen   uint32
//	payload  [paylen]byte
//
// A sender may hand the header and the payload over as two buffers, as
// a networked client would with writev: the frame is their
// concatenation, and the one parser takes the pair.
//
// The codec is canonical: for every frame Decode accepts,
// Encode(Decode(b)) reproduces b byte-for-byte (the fuzz invariant).
type Frame struct {
	Kind    uint8
	Op      Op
	Status  Status
	Client  uint32
	ID      uint64
	Key     string
	Payload []byte
}

// frameHeaderLen is the fixed-size part of the header, everything but
// the key: magic(4) ver(1) kind(1) op(1) status(1) client(4) id(8)
// keylen(2) paylen(4).
const frameHeaderLen = 4 + 1 + 1 + 1 + 1 + 4 + 8 + 2 + 4

// ErrFrameTooLarge reports a request the wire format cannot carry: the
// key does not fit the u16 length field or the payload the u32 one.
// Encoding such a frame would truncate the length and emit bytes whose
// header disagrees with the body, so Client refuses it before encoding.
// The error is permanent — retrying cannot shrink the request.
var ErrFrameTooLarge = errors.New("ckptstore: key or payload exceeds the frame format's length fields")

// maxKeyLen and maxPayloadLen are the largest key and payload the u16
// and u32 length fields can describe.
const (
	maxKeyLen     = math.MaxUint16
	maxPayloadLen = math.MaxUint32
)

// checkSize reports ErrFrameTooLarge (wrapped) when key or a payload of
// payloadLen bytes would overflow its length field.
func checkSize(key string, payloadLen int) error {
	if len(key) > maxKeyLen {
		return fmt.Errorf("%d-byte key: %w", len(key), ErrFrameTooLarge)
	}
	if uint64(payloadLen) > maxPayloadLen {
		return fmt.Errorf("%d-byte payload: %w", payloadLen, ErrFrameTooLarge)
	}
	return nil
}

// Encode serialises the frame into a fresh buffer.
func (f *Frame) Encode() []byte {
	return f.AppendEncode(make([]byte, 0, frameHeaderLen+len(f.Key)+len(f.Payload)))
}

// AppendEncode appends the frame's wire form to dst and returns the
// extended slice. Key and Payload are read, never retained, so a caller
// that passes a reused buffer encodes without allocating once the buffer
// has grown to its largest frame.
func (f *Frame) AppendEncode(dst []byte) []byte {
	return append(f.appendHeader(dst), f.Payload...)
}

// appendHeader appends the frame's header — everything before the
// payload, paylen included — to dst: the one encoder.
func (f *Frame) appendHeader(dst []byte) []byte {
	dst = append(dst, frameMagic...)
	dst = append(dst, frameVersion, f.Kind, uint8(f.Op), uint8(f.Status))
	dst = binary.LittleEndian.AppendUint32(dst, f.Client)
	dst = binary.LittleEndian.AppendUint64(dst, f.ID)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(f.Key)))
	dst = append(dst, f.Key...)
	return binary.LittleEndian.AppendUint32(dst, uint32(len(f.Payload)))
}

// DecodeFrame parses one contiguous frame, rejecting anything Encode
// could not have produced. It is the one parser (Frame.decode) on b
// split at the end of its header.
//
// Buffer ownership: the returned Payload aliases b (capacity-clipped, so
// appending to it cannot reach past the frame) — decoding moves no
// payload byte. It is valid only while the caller leaves b alone; a
// consumer that keeps the payload past that point copies it. Key is a
// string and therefore always a copy.
func DecodeFrame(b []byte) (*Frame, error) {
	f := new(Frame)
	if err := f.decodeWhole(b); err != nil {
		return nil, err
	}
	return f, nil
}

// decodeWhole is decode on a contiguous frame. Kept apart so that
// DecodeFrame stays small enough to inline, and a caller whose frame does
// not escape keeps it on the stack.
func (f *Frame) decodeWhole(b []byte) error { return f.decode(splitFrame(b)) }

// splitFrame splits a contiguous frame at the end of its header, as far
// as b holds one; decode judges both parts.
func splitFrame(b []byte) (header, payload []byte) {
	n := len(b)
	if n >= frameHeaderLen {
		n = min(n, frameHeaderLen+int(binary.LittleEndian.Uint16(b[20:])))
	}
	return b[:n], b[n:]
}

// decode parses a frame given as its header and its payload — the one
// parser, for a contiguous frame (DecodeFrame, Service.Handle) and a
// split one (Client) alike. header must hold exactly the header and
// payload exactly paylen bytes. The decoded Payload aliases payload,
// capacity-clipped.
func (f *Frame) decode(header, payload []byte) error {
	b := header
	if len(b) < frameHeaderLen {
		return fmt.Errorf("%w: %d bytes, want >= %d", ErrBadFrame, len(b), frameHeaderLen)
	}
	if string(b[:4]) != frameMagic {
		return fmt.Errorf("%w: bad magic %q", ErrBadFrame, b[:4])
	}
	if b[4] != frameVersion {
		return fmt.Errorf("%w: unknown version %d", ErrBadFrame, b[4])
	}
	*f = Frame{Kind: b[5], Op: Op(b[6]), Status: Status(b[7])}
	if f.Kind != KindRequest && f.Kind != KindResponse {
		return fmt.Errorf("%w: unknown kind %d", ErrBadFrame, f.Kind)
	}
	if f.Op < OpPut || f.Op > OpSize {
		return fmt.Errorf("%w: unknown op %d", ErrBadFrame, uint8(f.Op))
	}
	if f.Status > StatusDeadline {
		return fmt.Errorf("%w: unknown status %d", ErrBadFrame, uint8(f.Status))
	}
	if f.Kind == KindRequest && f.Status != StatusOK {
		return fmt.Errorf("%w: request carries status %d", ErrBadFrame, uint8(f.Status))
	}
	f.Client = binary.LittleEndian.Uint32(b[8:])
	f.ID = binary.LittleEndian.Uint64(b[12:])
	keyLen := int(binary.LittleEndian.Uint16(b[20:]))
	rest := b[22:]
	if len(rest) < keyLen+4 {
		return fmt.Errorf("%w: truncated key", ErrBadFrame)
	}
	if len(rest) > keyLen+4 {
		return fmt.Errorf("%w: %d trailing header bytes", ErrBadFrame, len(rest)-keyLen-4)
	}
	f.Key = string(rest[:keyLen])
	payLen := int(binary.LittleEndian.Uint32(rest[keyLen:]))
	if len(payload) != payLen {
		return fmt.Errorf("%w: payload length %d, have %d bytes", ErrBadFrame, payLen, len(payload))
	}
	if payLen > 0 {
		f.Payload = payload[:payLen:payLen]
	}
	return nil
}

// encodeKeys packs a key list into a response payload: u32 count, then
// per key a u16 length and the bytes.
func encodeKeys(keys []string) []byte {
	n := 4
	for _, k := range keys {
		n += 2 + len(k)
	}
	out := make([]byte, 0, n)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(keys)))
	for _, k := range keys {
		out = binary.LittleEndian.AppendUint16(out, uint16(len(k)))
		out = append(out, k...)
	}
	return out
}

// decodeKeys unpacks a Keys response payload.
func decodeKeys(b []byte) ([]string, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("%w: truncated key list", ErrBadFrame)
	}
	count := binary.LittleEndian.Uint32(b)
	b = b[4:]
	keys := make([]string, 0, min(count, 1024))
	for i := uint32(0); i < count; i++ {
		if len(b) < 2 {
			return nil, fmt.Errorf("%w: truncated key list", ErrBadFrame)
		}
		kl := int(binary.LittleEndian.Uint16(b))
		b = b[2:]
		if len(b) < kl {
			return nil, fmt.Errorf("%w: truncated key list", ErrBadFrame)
		}
		keys = append(keys, string(b[:kl]))
		b = b[kl:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after key list", ErrBadFrame, len(b))
	}
	return keys, nil
}

// encodeSize packs a Size response payload.
func encodeSize(n uint64) []byte {
	return binary.LittleEndian.AppendUint64(nil, n)
}

// decodeSize unpacks a Size response payload.
func decodeSize(b []byte) (uint64, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("%w: size payload is %d bytes, want 8", ErrBadFrame, len(b))
	}
	return binary.LittleEndian.Uint64(b), nil
}
