package cluster

import (
	"math"
	"testing"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/storage"
)

func testCluster(t *testing.T, n int) *Cluster {
	t.Helper()
	c, err := New(Homogeneous(n, hw.BeefyL5630()))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func batchOf(bytes float64) storage.Batch {
	return storage.Batch{Rows: int(bytes / 20), Width: 20}
}

func TestNewRejectsEmpty(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestLocalSendBypassesNetwork(t *testing.T) {
	c := testCluster(t, 2)
	mb := NewMailbox("mb", 1, 0)
	var recvAt sim.Time
	c.Eng.Go("send", func(p *sim.Proc) {
		c.Send(p, Message{From: 0, To: 0, Batch: batchOf(95e6), Dest: mb})
		c.Send(p, Message{From: 0, To: 0, EOS: true, Dest: mb})
	})
	c.Eng.Go("recv", func(p *sim.Proc) {
		for {
			if _, ok := mb.Recv(p); !ok {
				break
			}
			recvAt = p.Now()
		}
	})
	c.Eng.Run()
	if recvAt != 0 {
		t.Fatalf("local 95MB batch took %v s, want 0 (no network)", recvAt)
	}
	if c.Nodes[0].Egress.BusySeconds() != 0 {
		t.Fatal("local send charged egress")
	}
}

func TestRemoteSendTakesLinkTime(t *testing.T) {
	// 95 MB over a 95 MB/s link: ~1 s egress + ~1 s ingress, pipelined in
	// two batches so closer to 1.5 s for a single pair of batches; a
	// single batch is store-and-forward: 2 s.
	c := testCluster(t, 2)
	mb := NewMailbox("mb", 1, 0)
	var done sim.Time
	c.Eng.Go("send", func(p *sim.Proc) {
		c.Send(p, Message{From: 0, To: 1, Batch: batchOf(95e6), Dest: mb})
		c.Send(p, Message{From: 0, To: 1, EOS: true, Dest: mb})
	})
	c.Eng.Go("recv", func(p *sim.Proc) {
		for {
			if _, ok := mb.Recv(p); !ok {
				break
			}
		}
		done = p.Now()
	})
	c.Eng.Run()
	if math.Abs(done-2.0) > 0.01 {
		t.Fatalf("single 95MB batch delivered at %v s, want ~2 (store-and-forward)", done)
	}
}

func TestStreamingPipelinesToLinkRate(t *testing.T) {
	// Many small batches: total delivery time ~ bytes/L, not 2x.
	c := testCluster(t, 2)
	const nBatches = 100
	const batchBytes = 95e4 // 0.95 MB each => 95 MB total => ~1 s at line rate
	mb := NewMailbox("mb", 1, 4)
	var done sim.Time
	c.Eng.Go("send", func(p *sim.Proc) {
		for i := 0; i < nBatches; i++ {
			c.Send(p, Message{From: 0, To: 1, Batch: batchOf(batchBytes), Dest: mb})
		}
		c.Send(p, Message{From: 0, To: 1, EOS: true, Dest: mb})
	})
	c.Eng.Go("recv", func(p *sim.Proc) {
		for {
			if _, ok := mb.Recv(p); !ok {
				break
			}
		}
		done = p.Now()
	})
	c.Eng.Run()
	if done > 1.1 {
		t.Fatalf("pipelined 95MB stream took %v s, want ~1.0 (line rate)", done)
	}
	if done < 0.99 {
		t.Fatalf("stream faster than line rate: %v s", done)
	}
}

func TestIngestionBottleneck(t *testing.T) {
	// Three senders stream 95 MB each to one receiver: the receiver's
	// ingress port (95 MB/s) is the bottleneck, so ~3 s total even though
	// aggregate egress capacity is 3x. This is the Beefy-ingestion effect
	// of §5.3.
	c := testCluster(t, 4)
	mb := NewMailbox("mb", 3, 4)
	for s := 1; s <= 3; s++ {
		s := s
		c.Eng.Go("send", func(p *sim.Proc) {
			for i := 0; i < 100; i++ {
				c.Send(p, Message{From: s, To: 0, Batch: batchOf(95e4), Dest: mb})
			}
			c.Send(p, Message{From: s, To: 0, EOS: true, Dest: mb})
		})
	}
	var done sim.Time
	c.Eng.Go("recv", func(p *sim.Proc) {
		for {
			if _, ok := mb.Recv(p); !ok {
				break
			}
		}
		done = p.Now()
	})
	c.Eng.Run()
	if math.Abs(done-3.0) > 0.15 {
		t.Fatalf("3x95MB fan-in took %v s, want ~3.0 (ingress-bound)", done)
	}
}

func TestShuffleEgressBottleneck(t *testing.T) {
	// 4-node all-to-all shuffle of equal data: each node sends 3/4 of its
	// data remotely. With 95 MB per node and batches spread round-robin,
	// finish time ~= (0.75*95MB)/L = 0.75 s.
	c := testCluster(t, 4)
	n := 4
	mbs := make([]*Mailbox, n)
	for i := range mbs {
		mbs[i] = NewMailbox("mb", n, 4)
	}
	for s := 0; s < n; s++ {
		s := s
		c.Eng.Go("send", func(p *sim.Proc) {
			for i := 0; i < 100; i++ {
				to := i % n
				c.Send(p, Message{From: s, To: to, Batch: batchOf(95e4), Dest: mbs[to]})
			}
			for to := 0; to < n; to++ {
				c.Send(p, Message{From: s, To: to, EOS: true, Dest: mbs[to]})
			}
		})
	}
	var latest sim.Time
	for r := 0; r < n; r++ {
		r := r
		c.Eng.Go("recv", func(p *sim.Proc) {
			for {
				if _, ok := mbs[r].Recv(p); !ok {
					break
				}
			}
			if p.Now() > latest {
				latest = p.Now()
			}
		})
	}
	c.Eng.Run()
	if math.Abs(latest-0.75) > 0.08 {
		t.Fatalf("4-way shuffle took %v s, want ~0.75 (egress of remote 3/4)", latest)
	}
}

func TestMailboxEOSCounting(t *testing.T) {
	c := testCluster(t, 3)
	mb := NewMailbox("mb", 2, 0)
	got := 0
	c.Eng.Go("s1", func(p *sim.Proc) {
		c.Send(p, Message{From: 1, To: 0, Batch: batchOf(100), Dest: mb})
		c.Send(p, Message{From: 1, To: 0, EOS: true, Dest: mb})
	})
	c.Eng.Go("s2", func(p *sim.Proc) {
		p.Hold(1)
		c.Send(p, Message{From: 2, To: 0, Batch: batchOf(100), Dest: mb})
		c.Send(p, Message{From: 2, To: 0, EOS: true, Dest: mb})
	})
	closed := false
	c.Eng.Go("r", func(p *sim.Proc) {
		for {
			_, ok := mb.Recv(p)
			if !ok {
				closed = true
				return
			}
			got++
		}
	})
	c.Eng.Run()
	if got != 2 || !closed {
		t.Fatalf("received %d batches, closed=%v; want 2, true", got, closed)
	}
}

func TestMetersAccumulate(t *testing.T) {
	c := testCluster(t, 2)
	c.Eng.Go("load", func(p *sim.Proc) {
		c.Nodes[0].CPU.Process(p, c.Nodes[0].Spec.CPUBandwidth*1e6*5) // 5 s busy
	})
	c.Eng.Run()
	c.Stop()
	j0 := c.Nodes[0].Meter.Joules()
	j1 := c.Nodes[1].Meter.Joules()
	if j0 <= j1 {
		t.Fatalf("busy node energy %v <= idle node %v", j0, j1)
	}
	// Idle node draws f(G_B) for 5 s.
	wantIdle := c.Nodes[1].Spec.Power.Watts(0.25) * 5
	if math.Abs(j1-wantIdle) > 1e-6 {
		t.Fatalf("idle energy = %v, want %v", j1, wantIdle)
	}
	if math.Abs(c.TotalJoules()-(j0+j1)) > 1e-9 {
		t.Fatal("TotalJoules mismatch")
	}
}

func TestBeefyWimpyPartition(t *testing.T) {
	c, err := New(Mixed(2, hw.BeefyL5630(), 2, hw.LaptopB()))
	if err != nil {
		t.Fatal(err)
	}
	if b := c.Beefy(); len(b) != 2 || b[0] != 0 || b[1] != 1 {
		t.Fatalf("Beefy() = %v", b)
	}
	if w := c.Wimpy(); len(w) != 2 || w[0] != 2 || w[1] != 3 {
		t.Fatalf("Wimpy() = %v", w)
	}
}

func TestHomogeneousConfig(t *testing.T) {
	cfg := Homogeneous(5, hw.ClusterV())
	if len(cfg.Specs) != 5 {
		t.Fatalf("Homogeneous(5) has %d specs", len(cfg.Specs))
	}
}

// TestNodeFailRestartDowntime: Fail stalls all four servers to the
// restart time, flips the down flag, and DownBetween accounts the
// outage (including a still-open one).
func TestNodeFailRestartDowntime(t *testing.T) {
	c, err := New(Homogeneous(1, hw.BeefyL5630()))
	if err != nil {
		t.Fatal(err)
	}
	n := c.Nodes[0]
	// stalledTo books no work on s and checks that the booking completes
	// at the restart time: work booked during an outage waits for it.
	// completed counts the bookings whose check ran.
	completed := 0
	stalledTo := func(s *sim.Server, want sim.Time) {
		s.ProcessAsync(0, func() {
			completed++
			if got := c.Eng.Now(); got != want {
				t.Errorf("server %s not stalled to restart: a booking completed at %v, want %v", s.Name(), got, want)
			}
		})
	}
	c.Eng.At(2, func() {
		n.Fail(5)
		if !n.Down() {
			t.Error("not down after Fail")
		}
		for _, s := range []*sim.Server{n.CPU, n.Disk, n.Egress, n.Ingress} {
			stalledTo(s, 5)
		}
		// Failing again during the outage extends the stall but keeps
		// the outage's start (DownBetween at t=4 below).
		n.Fail(6)
		stalledTo(n.CPU, 6)
	})
	c.Eng.At(4, func() {
		if got := n.DownBetween(0, 4); got != 2 {
			t.Errorf("open-outage DownBetween = %v, want 2", got)
		}
	})
	c.Eng.At(6, func() {
		n.Restart()
		if n.Down() {
			t.Error("still down after Restart")
		}
		n.Restart() // idempotent
	})
	c.Run()
	if completed != 5 {
		t.Fatalf("%d of the 5 stalled bookings completed", completed)
	}
	if got := n.DownBetween(0, 10); got != 4 {
		t.Fatalf("DownBetween = %v, want 4", got)
	}
	if got := n.DownBetween(3, 5); got != 2 {
		t.Fatalf("windowed DownBetween = %v, want 2", got)
	}
}
