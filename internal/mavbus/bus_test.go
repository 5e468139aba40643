package mavbus

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"soundboost/internal/leakcheck"
)

// waitBlocked waits until n goroutines sit in a Publish blocked on a
// full bus.
func waitBlocked(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		blocked := 0
		for _, g := range leakcheck.Snapshot() {
			if strings.Contains(g, "sync.(*Cond).Wait") && strings.Contains(g, "mavbus.(*Bus).Publish") {
				blocked++
			}
		}
		if blocked >= n {
			return
		}
	}
	t.Fatalf("fewer than %d Publish calls blocked on the full bus", n)
}

func fill(t *testing.T, b *Bus) {
	t.Helper()
	for i := 0; i < depth; i++ {
		if err := b.Publish(Message{Topic: "imu", Time: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPublishSubscribe(t *testing.T) {
	b := NewBus(10)
	defer b.Close()
	if err := b.Publish(Message{Topic: "imu", Time: 1, Payload: "a"}); err != nil {
		t.Fatal(err)
	}
	got := b.Take(nil)
	if len(got) != 1 || got[0].Time != 1 || got[0].Payload != "a" {
		t.Errorf("Take = %+v, want the one published message", got)
	}
}

// TestFIFOAcrossTopics: topics do not partition the stream; messages
// come out in publication order whatever their topic.
func TestFIFOAcrossTopics(t *testing.T) {
	b := NewBus(0)
	topics := []string{"audio-frame", "imu", "gps"}
	for i := 0; i < 30; i++ {
		if err := b.Publish(Message{Topic: topics[i%3], Time: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	b.Close()
	got := b.Take(nil)
	if len(got) != 30 {
		t.Fatalf("took %d messages, want 30", len(got))
	}
	for i, m := range got {
		if m.Time != float64(i) || m.Topic != topics[i%3] {
			t.Fatalf("message %d = %+v, want time %d on %q", i, m, i, topics[i%3])
		}
	}
	if rest := b.Take(got); len(rest) != 0 {
		t.Errorf("closed, drained bus returned %d more messages", len(rest))
	}
}

// TestPublishBlocksWhenFull: a full bus holds the producer back instead
// of shedding, and the oldest message is still the first out.
func TestPublishBlocksWhenFull(t *testing.T) {
	b := NewBus(0)
	defer b.Close()
	fill(t, b)
	done := make(chan error, 1)
	go func() { done <- b.Publish(Message{Topic: "gps", Time: depth}) }()
	waitBlocked(t, 1)
	got := b.Take(nil)
	if len(got) != depth || got[0].Time != 0 {
		t.Fatalf("took %d messages starting at %v, want %d starting at 0", len(got), got[0].Time, depth)
	}
	if err := <-done; err != nil {
		t.Fatalf("blocked Publish = %v after room was made", err)
	}
	if got = b.Take(got); len(got) != 1 || got[0].Time != depth {
		t.Errorf("Take = %+v, want the once-blocked message", got)
	}
}

func TestCloseBus(t *testing.T) {
	b := NewBus(0)
	if err := b.Publish(Message{Topic: "x", Time: 1}); err != nil {
		t.Fatal(err)
	}
	b.Close()
	if err := b.Publish(Message{Topic: "x", Time: 2}); !errors.Is(err, ErrClosed) {
		t.Errorf("Publish after close = %v, want ErrClosed", err)
	}
	if got := b.Take(nil); len(got) != 1 || got[0].Time != 1 {
		t.Errorf("Take after close = %+v, want the message published before it", got)
	}
	if got := b.Take(nil); len(got) != 0 {
		t.Errorf("drained closed bus returned %+v", got)
	}
}

func TestCloseIdempotent(t *testing.T) {
	b := NewBus(0)
	b.Close()
	b.Close()
	if err := b.Publish(Message{}); !errors.Is(err, ErrClosed) {
		t.Errorf("Publish after double close = %v, want ErrClosed", err)
	}
	if got := b.Take(nil); len(got) != 0 {
		t.Errorf("Take on closed empty bus = %+v", got)
	}
}

// TestConcurrentPublishers: every message a Publish accepted is taken
// exactly once, and each publisher's messages keep their order.
func TestConcurrentPublishers(t *testing.T) {
	const publishers, each = 4, 3 * depth
	b := NewBus(0)
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := b.Publish(Message{Topic: "imu", Time: float64(p*each + i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	go func() { wg.Wait(); b.Close() }()
	next := make([]int, publishers)
	total := 0
	for batch := b.Take(nil); len(batch) > 0; batch = b.Take(batch) {
		for _, m := range batch {
			p, i := int(m.Time)/each, int(m.Time)%each
			if i != next[p] {
				t.Fatalf("publisher %d: got message %d, want %d", p, i, next[p])
			}
			next[p]++
			total++
		}
	}
	if total != publishers*each {
		t.Errorf("took %d messages, want %d", total, publishers*each)
	}
}

// TestCloseReleasesBlockedPublish races Close against producers blocked
// on a full bus: every one must return ErrClosed, and only the messages
// queued before Close come out.
func TestCloseReleasesBlockedPublish(t *testing.T) {
	for round := 0; round < 20; round++ {
		b := NewBus(0)
		fill(t, b)
		errs := make(chan error, 4)
		for p := 0; p < 4; p++ {
			go func() { errs <- b.Publish(Message{Topic: "gps", Time: -1}) }()
		}
		if round == 0 {
			waitBlocked(t, 4)
		}
		b.Close()
		for p := 0; p < 4; p++ {
			if err := <-errs; !errors.Is(err, ErrClosed) {
				t.Fatalf("blocked Publish = %v, want ErrClosed", err)
			}
		}
		if got := b.Take(nil); len(got) != depth || got[depth-1].Time != depth-1 {
			t.Fatalf("took %d messages after Close, want the %d queued before it", len(got), depth)
		}
	}
}

// TestDropAccountingExact closes the bus under concurrent publishers:
// every Publish that returned nil is taken exactly once, every other
// one returned ErrClosed, and nothing else comes out.
func TestDropAccountingExact(t *testing.T) {
	for round := 0; round < 20; round++ {
		b := NewBus(0)
		var accepted, rejected [4]int
		var wg sync.WaitGroup
		for p := range accepted {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := 0; i < depth; i++ {
					switch err := b.Publish(Message{Topic: "imu", Time: float64(p)}); {
					case err == nil:
						accepted[p]++
					case errors.Is(err, ErrClosed):
						rejected[p]++
					default:
						t.Error(err)
					}
				}
			}(p)
		}
		var taken [4]int
		for batch := b.Take(nil); len(batch) > 0; batch = b.Take(batch) {
			for _, m := range batch {
				p := int(m.Time)
				taken[p]++
				if p == 0 && taken[p] == depth/2 {
					b.Close()
				}
			}
		}
		wg.Wait()
		for p := range accepted {
			if taken[p] != accepted[p] || accepted[p]+rejected[p] != depth {
				t.Fatalf("publisher %d: %d accepted, %d rejected, %d taken", p, accepted[p], rejected[p], taken[p])
			}
		}
	}
}
