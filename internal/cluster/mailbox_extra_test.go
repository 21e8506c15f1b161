package cluster

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/storage"
)

func TestRecvManyBatchesBufferedMessages(t *testing.T) {
	c, err := New(Homogeneous(2, hw.BeefyL5630()))
	if err != nil {
		t.Fatal(err)
	}
	mb := NewMailbox("mb", 1, 0)
	var got [][]storage.Batch
	c.Eng.Go("send", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			c.Send(p, Message{From: 0, To: 0, Batch: storage.Batch{Rows: i + 1, Width: 20}, Dest: mb})
		}
		c.Send(p, Message{From: 0, To: 0, EOS: true, Dest: mb})
	})
	c.Eng.Go("recv", func(p *sim.Proc) {
		p.Hold(1) // let everything buffer
		for {
			bs := mb.TryRecvManyInto(nil, 64)
			if len(bs) == 0 {
				return
			}
			got = append(got, bs)
		}
	})
	c.Eng.Run()
	if !mb.Closed() {
		t.Fatal("mailbox not closed after the last sender's EOS was drained")
	}
	if len(got) != 1 || len(got[0]) != 5 {
		t.Fatalf("RecvMany groups = %d (first len %d), want one group of 5",
			len(got), len(got[0]))
	}
	total := 0
	for _, b := range got[0] {
		total += b.Rows
	}
	if total != 1+2+3+4+5 {
		t.Fatalf("rows lost: %d", total)
	}
}

func TestRecvManyRespectsMax(t *testing.T) {
	c, err := New(Homogeneous(1, hw.BeefyL5630()))
	if err != nil {
		t.Fatal(err)
	}
	mb := NewMailbox("mb", 1, 0)
	var sizes []int
	c.Eng.Go("send", func(p *sim.Proc) {
		for i := 0; i < 7; i++ {
			c.Send(p, Message{From: 0, To: 0, Batch: storage.Batch{Rows: 1, Width: 1}, Dest: mb})
		}
		c.Send(p, Message{From: 0, To: 0, EOS: true, Dest: mb})
	})
	c.Eng.Go("recv", func(p *sim.Proc) {
		p.Hold(1)
		for {
			bs := mb.TryRecvManyInto(nil, 3)
			if len(bs) == 0 {
				return
			}
			sizes = append(sizes, len(bs))
		}
	})
	c.Eng.Run()
	if !mb.Closed() {
		t.Fatal("mailbox not closed after the last sender's EOS was drained")
	}
	for _, s := range sizes {
		if s > 3 {
			t.Fatalf("RecvMany exceeded max: %v", sizes)
		}
	}
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != 7 {
		t.Fatalf("received %d batches, want 7", total)
	}
}

func TestRecvManyHandlesInterleavedEOS(t *testing.T) {
	// Two senders; the EOS of the first arrives between data batches.
	c, err := New(Homogeneous(1, hw.BeefyL5630()))
	if err != nil {
		t.Fatal(err)
	}
	mb := NewMailbox("mb", 2, 0)
	c.Eng.Go("send", func(p *sim.Proc) {
		c.Send(p, Message{From: 0, To: 0, Batch: storage.Batch{Rows: 1, Width: 1}, Dest: mb})
		c.Send(p, Message{From: 0, To: 0, EOS: true, Dest: mb})
		c.Send(p, Message{From: 0, To: 0, Batch: storage.Batch{Rows: 2, Width: 1}, Dest: mb})
		c.Send(p, Message{From: 0, To: 0, EOS: true, Dest: mb})
	})
	rows := 0
	c.Eng.Go("recv", func(p *sim.Proc) {
		p.Hold(1)
		for {
			bs := mb.TryRecvManyInto(nil, 64)
			if len(bs) == 0 {
				return
			}
			for _, b := range bs {
				rows += b.Rows
			}
		}
	})
	c.Eng.Run()
	if !mb.Closed() {
		t.Fatal("mailbox not closed after the last sender's EOS was drained")
	}
	if rows != 3 {
		t.Fatalf("rows = %d, want 3 (EOS swallowed data?)", rows)
	}
}
