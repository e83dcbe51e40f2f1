package serve

import (
	"errors"
	"fmt"
	"testing"
)

func queuedJob(tenant string, priority int, n int) *job {
	return &job{rec: JobRecord{
		ID:       fmt.Sprintf("j-%012x", n),
		Tenant:   tenant,
		Priority: priority,
		State:    StateQueued,
	}}
}

func TestSchedulerWeightedFairShare(t *testing.T) {
	s := newScheduler(100, 100, map[string]float64{"heavy": 3, "light": 1})
	n := 0
	for i := 0; i < 12; i++ {
		n++
		if err := s.push(queuedJob("heavy", 0, n), false); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 12; i++ {
		n++
		if err := s.push(queuedJob("light", 0, n), false); err != nil {
			t.Fatal(err)
		}
	}
	// Drain the first 8 grants: stride scheduling should give heavy ~3x
	// light's share.
	counts := map[string]int{}
	for i := 0; i < 8; i++ {
		j := s.next()
		if j == nil {
			t.Fatal("queue drained early")
		}
		counts[j.rec.Tenant]++
	}
	if counts["heavy"] != 6 || counts["light"] != 2 {
		t.Errorf("first 8 grants: heavy=%d light=%d, want 6/2", counts["heavy"], counts["light"])
	}
	// The rest still drains completely.
	for i := 0; i < 16; i++ {
		if s.next() == nil {
			t.Fatalf("queue drained after %d more", i)
		}
	}
	if s.next() != nil {
		t.Error("empty queue returned a job")
	}
}

func TestSchedulerPriorityWithinTenant(t *testing.T) {
	s := newScheduler(100, 100, nil)
	_ = s.push(queuedJob("t", 0, 1), false)
	_ = s.push(queuedJob("t", 5, 2), false)
	_ = s.push(queuedJob("t", 5, 3), false)
	_ = s.push(queuedJob("t", -1, 4), false)
	var order []string
	for j := s.next(); j != nil; j = s.next() {
		order = append(order, j.rec.ID)
	}
	want := []string{
		fmt.Sprintf("j-%012x", 2), // priority 5, first in
		fmt.Sprintf("j-%012x", 3), // priority 5, FIFO after 2
		fmt.Sprintf("j-%012x", 1), // priority 0
		fmt.Sprintf("j-%012x", 4), // priority -1
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("drain order %v, want %v", order, want)
		}
	}
}

func TestSchedulerAdmissionCaps(t *testing.T) {
	s := newScheduler(3, 2, nil)
	if err := s.push(queuedJob("a", 0, 1), false); err != nil {
		t.Fatal(err)
	}
	if err := s.push(queuedJob("a", 0, 2), false); err != nil {
		t.Fatal(err)
	}
	// Tenant a is at its quota.
	err := s.push(queuedJob("a", 0, 3), false)
	var adm *AdmissionError
	if !errors.As(err, &adm) || adm.Reason != "tenant_quota" {
		t.Fatalf("tenant cap: err=%v", err)
	}
	if err := s.push(queuedJob("b", 0, 4), false); err != nil {
		t.Fatal(err)
	}
	// Global queue is full for everyone now.
	err = s.push(queuedJob("c", 0, 5), false)
	if !errors.As(err, &adm) || adm.Reason != "queue_full" {
		t.Fatalf("global cap: err=%v", err)
	}
	if adm.RetryAfter <= 0 {
		t.Error("no Retry-After hint")
	}
	// force bypasses both caps (recovery path).
	if err := s.push(queuedJob("a", 0, 6), true); err != nil {
		t.Fatalf("force push: %v", err)
	}
	if s.depth != 4 {
		t.Errorf("depth = %d, want 4", s.depth)
	}
}

func TestSchedulerRemove(t *testing.T) {
	s := newScheduler(10, 10, nil)
	_ = s.push(queuedJob("t", 0, 1), false)
	_ = s.push(queuedJob("t", 0, 2), false)
	if !s.remove(fmt.Sprintf("j-%012x", 1)) {
		t.Fatal("remove missed a queued job")
	}
	if s.remove("j-nope") {
		t.Fatal("remove found a ghost")
	}
	j := s.next()
	if j == nil || j.rec.ID != fmt.Sprintf("j-%012x", 2) {
		t.Fatalf("next after remove = %+v", j)
	}
}

// TestSchedulerGiveBack: a job popped but not started goes back ahead of
// its tenant's other jobs, and the tenant is refunded the turn, so the
// next pop is the same job again rather than another tenant's.
func TestSchedulerGiveBack(t *testing.T) {
	s := newScheduler(100, 100, nil)
	for n, tenant := range []string{"a", "a", "b"} {
		if err := s.push(queuedJob(tenant, 0, n+1), false); err != nil {
			t.Fatal(err)
		}
	}
	first := s.next()
	if first.rec.Tenant != "a" {
		t.Fatalf("first pop from tenant %s, want a", first.rec.Tenant)
	}
	s.giveBack(first)
	if depth, _ := s.depths(); depth != 3 {
		t.Errorf("depth %d after the give-back, want 3", depth)
	}
	if again := s.next(); again != first {
		t.Errorf("popped %s after the give-back, want %s again", again.rec.ID, first.rec.ID)
	}
	for _, want := range []string{"b", "a"} {
		if j := s.next(); j == nil || j.rec.Tenant != want {
			t.Fatalf("next pop %+v, want tenant %s", j, want)
		}
	}
}
