package fault

import (
	"testing"

	"hhcw/internal/randx"
	"hhcw/internal/sim"
)

func TestRetryPolicyNormalization(t *testing.T) {
	var zero RetryPolicy
	if zero.Attempts() != 1 {
		t.Fatalf("zero policy attempts = %d, want 1", zero.Attempts())
	}
	if zero.ShouldRetry(1) {
		t.Fatal("zero policy must not retry")
	}
	p := RetryPolicy{MaxAttempts: 3}
	if !p.ShouldRetry(1) || !p.ShouldRetry(2) || p.ShouldRetry(3) {
		t.Fatal("ShouldRetry must allow attempts 2..MaxAttempts only")
	}
}

func TestBackoffGrowthAndCap(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 10, BaseDelaySec: 5, MaxDelaySec: 30, Multiplier: 2}
	want := []sim.Time{5, 10, 20, 30, 30}
	for i, w := range want {
		if got := p.Backoff(i+1, nil); got != w {
			t.Fatalf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
	// Zero base means no delay at all.
	if (RetryPolicy{MaxAttempts: 3}).Backoff(1, nil) != 0 {
		t.Fatal("no-base policy must have zero backoff")
	}
}

func TestBackoffJitterDeterministicAndBounded(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseDelaySec: 10, Multiplier: 2, JitterFrac: 0.5}
	a := p.Backoff(1, randx.New(42))
	b := p.Backoff(1, randx.New(42))
	if a != b {
		t.Fatalf("same seed gave different jitter: %v vs %v", a, b)
	}
	for seed := int64(1); seed <= 200; seed++ {
		d := float64(p.Backoff(1, randx.New(seed)))
		if d < 5 || d > 15 {
			t.Fatalf("seed %d: jittered delay %v outside ±50%% of 10", seed, d)
		}
	}
}
