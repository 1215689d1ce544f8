package ckptstore

import (
	"fmt"
)

// Client is one rank's connection to the service. It implements
// storage.Store by round-tripping every operation through the frame
// codec — the same bytes a networked deployment would put on the wire —
// so the supervisor, two-phase commit, and ResilientStore compose with
// the service exactly as with any other store.
//
// A request goes out as two buffers, as a networked client would send it
// with writev: its header, encoded into the client's one reused wire
// buffer, and the caller's payload beside it. No payload byte is copied
// on the way out; a put the service refuses moves none at all.
//
// Buffer ownership follows storage.Store: Put borrows data (the service
// copies whatever it keeps before it answers), and Get's result stays
// intact (it is the payload of a fresh response buffer nothing else
// references). Put and Delete answers carry no payload, so they are
// decoded from a second buffer the client reuses.
type Client struct {
	svc    *Service
	id     uint32
	nextID uint64
	// wire is the request header buffer and resp the put/delete
	// response buffer, each reused across ops: every attempt — shed,
	// retried or acked — encodes and is answered without allocating.
	wire []byte
	resp []byte
}

// Client returns a connection for the given client id (one per rank).
func (s *Service) Client(id uint32) *Client {
	return &Client{svc: s, id: id}
}

// roundTrip hands the request to the service, decodes the response and
// returns its payload, translating the wire status back into the storage
// error taxonomy. A request the frame format cannot carry is refused
// before it is encoded, with a permanent ErrFrameTooLarge.
func (c *Client) roundTrip(req *Frame) ([]byte, error) {
	if err := checkSize(req.Key, len(req.Payload)); err != nil {
		return nil, fmt.Errorf("ckptstore: client %d: %s: %w", c.id, req.Op, err)
	}
	c.nextID++
	req.Kind = KindRequest
	req.Client = c.id
	req.ID = c.nextID
	c.wire = req.appendHeader(c.wire[:0])
	// A nil dst asks for a fresh response: what a Get, Keys or Size
	// returns is its caller's.
	var dst []byte
	reuse := req.Op == OpPut || req.Op == OpDelete
	if reuse {
		dst = c.resp[:0]
	}
	respBytes, err := c.svc.handle(c.wire, req.Payload, dst)
	if err != nil {
		return nil, fmt.Errorf("ckptstore: client %d: %w", c.id, err)
	}
	if reuse {
		c.resp = respBytes
	}
	var resp Frame
	if err := resp.decodeWhole(respBytes); err != nil {
		return nil, fmt.Errorf("ckptstore: client %d: bad response: %w", c.id, err)
	}
	if resp.Kind != KindResponse || resp.Op != req.Op || resp.ID != req.ID {
		return nil, fmt.Errorf("ckptstore: client %d: response mismatch: %w", c.id, ErrBadFrame)
	}
	if err := resp.Status.Err(req.Op, req.Key); err != nil {
		return nil, err
	}
	return resp.Payload, nil
}

// Put implements storage.Store.
func (c *Client) Put(key string, data []byte) error {
	_, err := c.roundTrip(&Frame{Op: OpPut, Key: key, Payload: data})
	return err
}

// Get implements storage.Store.
func (c *Client) Get(key string) ([]byte, error) {
	return c.roundTrip(&Frame{Op: OpGet, Key: key})
}

// Delete implements storage.Store.
func (c *Client) Delete(key string) error {
	_, err := c.roundTrip(&Frame{Op: OpDelete, Key: key})
	return err
}

// Keys implements storage.Store.
func (c *Client) Keys() ([]string, error) {
	payload, err := c.roundTrip(&Frame{Op: OpKeys})
	if err != nil {
		return nil, err
	}
	return decodeKeys(payload)
}

// Size implements storage.Store.
func (c *Client) Size() (uint64, error) {
	payload, err := c.roundTrip(&Frame{Op: OpSize})
	if err != nil {
		return 0, err
	}
	return decodeSize(payload)
}
