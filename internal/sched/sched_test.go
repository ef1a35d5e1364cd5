package sched

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"deepnote/internal/simclock"
)

// TestQueueOrdersByTimeThenSeq: events come out in time order, with the
// issue sequence breaking ties.
func TestQueueOrdersByTimeThenSeq(t *testing.T) {
	var q Queue
	q.Push(30, 0)
	q.Push(10, 1)
	q.Push(20, 2)
	q.Push(10, 3) // same time as event 1, issued later
	var got []uint64
	for {
		it, ok := q.Pop()
		if !ok {
			break
		}
		got = append(got, it.ID)
	}
	want := []uint64{1, 3, 2, 0}
	if len(got) != len(want) {
		t.Fatalf("popped %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", got, want)
		}
	}
}

// TestQueueMatchesSortedOrder cross-checks the heap against a reference
// sort over a randomized workload, including interleaved pushes and pops.
func TestQueueMatchesSortedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var q Queue
	type ev struct {
		at  int64
		seq uint64
	}
	var ref []ev
	push := func(n int) {
		for i := 0; i < n; i++ {
			at := int64(rng.Intn(50))
			seq := q.Push(at, uint64(i))
			ref = append(ref, ev{at, seq})
		}
	}
	popAll := func() {
		sort.Slice(ref, func(i, j int) bool {
			if ref[i].at != ref[j].at {
				return ref[i].at < ref[j].at
			}
			return ref[i].seq < ref[j].seq
		})
		for i := 0; q.Len() > 0; i++ {
			it, _ := q.Pop()
			if it.At != ref[i].at || it.Seq != ref[i].seq {
				t.Fatalf("pop %d: got (%d,%d), want (%d,%d)", i, it.At, it.Seq, ref[i].at, ref[i].seq)
			}
		}
		ref = ref[:0]
	}
	push(500)
	popAll()
	push(37) // reuse the warm queue
	popAll()
}

// TestQueueDispatchZeroAlloc is the allocation-regression gate for the
// event core: push+pop on a warm queue must not allocate, so the serving
// hot path's per-op cost is pure compute.
func TestQueueDispatchZeroAlloc(t *testing.T) {
	var q Queue
	q.Grow(64)
	avg := testing.AllocsPerRun(1000, func() {
		for i := int64(0); i < 64; i++ {
			q.Push(i^21, uint64(i)) // mildly out of order
		}
		for q.Len() > 0 {
			q.Pop()
		}
	})
	if avg != 0 {
		t.Fatalf("event dispatch allocated %.1f times per drain, want 0", avg)
	}
}

// TestRunnerAdvancesClockMonotonically: the runner advances the clock to
// each event's time and never rewinds for late events.
func TestRunnerAdvancesClockMonotonically(t *testing.T) {
	r := &Runner{Clock: simclock.NewVirtual()}
	origin := r.Clock.Now()
	r.Queue.Push(100, 0)
	r.Queue.Push(50, 1)
	r.Queue.Push(150, 2)
	var at []int64
	r.Run(origin, func(it Item) {
		now := int64(r.Clock.Now().Sub(origin))
		if now < it.At {
			t.Fatalf("event %d dispatched at clock %d before its time %d", it.ID, now, it.At)
		}
		at = append(at, now)
		if it.ID == 1 {
			// Simulate service time so event at t=100 arrives "late".
			r.Clock.Advance(80 * time.Nanosecond)
		}
	})
	if len(at) != 3 {
		t.Fatalf("dispatched %d events, want 3", len(at))
	}
	// Order: t=50 (id 1), then t=100 (id 0) at clock 130 (backlogged), then 150.
	if at[0] != 50 || at[1] != 130 || at[2] != 150 {
		t.Fatalf("dispatch clocks %v, want [50 130 150]", at)
	}
}
