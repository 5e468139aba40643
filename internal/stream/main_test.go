package stream

import (
	"testing"

	"soundboost/internal/leakcheck"
)

// TestMain fails the suite if any test leaks a goroutine — an engine
// consumer that never saw its bus close, a replay stuck on a full bus.
func TestMain(m *testing.M) { leakcheck.Main(m) }
