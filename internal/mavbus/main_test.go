package mavbus

import (
	"testing"

	"soundboost/internal/leakcheck"
)

// TestMain fails the suite if any test leaks a goroutine — a reader
// waiting on a bus nobody closes, a publisher stuck on a full one.
func TestMain(m *testing.M) { leakcheck.Main(m) }
