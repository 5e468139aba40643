// Package mavbus is the in-process pipe from stream.Replay (the
// MAVLink-style streams of paper §III-D) to stream.Engine.Run: one
// ordered, lossless FIFO. A full pipe blocks Publish instead of dropping,
// so a fast producer slows down rather than thinning the verdict's input.
package mavbus

import (
	"sync"

	"soundboost/internal/faults"
)

// ErrClosed is Publish's error on a closed bus (faults.ErrBusClosed).
var ErrClosed = faults.ErrBusClosed

// depth bounds the queued messages. It only amortises goroutine
// handoffs; since nothing is dropped it changes no delivered message.
const depth = 1024

// Message is one telemetry item on a topic ("imu", "gps", "audio-frame").
type Message struct {
	Topic   string
	Time    float64 // flight seconds
	Payload any     // the topic's typed body
}

// Bus is a bounded FIFO safe for concurrent publishers and readers.
type Bus struct {
	mu     sync.Mutex
	cond   sync.Cond // broadcast on every queue or closed change
	queue  []Message
	closed bool
}

// NewBus returns an open, empty bus. Its argument is ignored.
func NewBus(int) *Bus {
	b := &Bus{}
	b.cond.L = &b.mu
	return b
}

// Publish appends a message, blocking while the bus is full. It queues
// nothing once the bus is closed; a nil return is always delivered.
func (b *Bus) Publish(m Message) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for !b.closed && len(b.queue) >= depth {
		b.cond.Wait()
	}
	if b.closed {
		return ErrClosed
	}
	b.queue = append(b.queue, m)
	b.cond.Broadcast()
	return nil
}

// Take blocks until the bus is non-empty or closed and returns every
// queued message in publication order; empty means closed and drained.
// buf is reused as the next queue, so the caller must not keep it.
func (b *Bus) Take(buf []Message) []Message {
	b.mu.Lock()
	defer b.mu.Unlock()
	for !b.closed && len(b.queue) == 0 {
		b.cond.Wait()
	}
	buf, b.queue = b.queue, buf[:0]
	b.cond.Broadcast()
	return buf
}

// Close ends the stream: blocked and later Publish calls return
// ErrClosed, and Take still drains what is queued. It is idempotent.
func (b *Bus) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	b.cond.Broadcast()
}
