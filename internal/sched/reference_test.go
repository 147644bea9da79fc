package sched

import "hira/internal/dram"

// TickReference advances the controller by one command clock the way the
// seed scheduler did: every channel runs the service step and then the
// seed's linear FR-FCFS scans, every tick, with no idle skipping. It is
// the behavioral oracle for Tick; the differential tests drive one
// controller with each and require the same command stream and stats.
// A controller must be driven by one of the two throughout.
func (c *Controller) TickReference() {
	c.engine.Tick(c.now)
	for _, ch := range c.chans {
		if !c.service(ch) {
			c.scheduleDemandRef(ch)
		}
	}
	c.now += c.cfg.Timing.TCK
}

// scheduleDemandRef is the seed's FR-FCFS implementation: three linear
// scans over the queue in arrival order. It is held equal to the
// optimized per-bank scheduleDemand, command for command and stat for
// stat, by the differential tests.
func (c *Controller) scheduleDemandRef(ch *channel) {
	k := c.pickQueue(ch)
	if k < 0 {
		return
	}
	// The seed's flat queue: every request, oldest first. Each pass
	// below returns as soon as it changes a queue, so one walk serves
	// all three.
	var buf [64]*reqNode
	queue := buf[:0]
	a := c.arrivals(ch, k)
	for n := a.next(); n != nil; n = a.next() {
		queue = append(queue, n)
	}

	// Pass 1 (FR): first-ready row hits — oldest first.
	for _, n := range queue {
		r := &n.req
		bank := &ch.banks[c.flat(r.Loc.Rank, r.Loc.Bank)]
		if bank.reserved || !bank.open || bank.row != r.Loc.Row {
			continue
		}
		if c.now < bank.readyCol || c.now < ch.ranks[r.Loc.Rank].refBusy {
			continue
		}
		if c.issueColumn(ch, r) {
			c.Stats.RowHits++
			c.removeNode(ch, k, n)
			return
		}
	}

	// Pass 2 (FCFS): oldest request needing an ACT on a closed, ready
	// bank.
	for _, n := range queue {
		r := &n.req
		bank := &ch.banks[c.flat(r.Loc.Rank, r.Loc.Bank)]
		if bank.reserved || bank.open {
			continue
		}
		if c.now < bank.readyACT {
			continue
		}
		if c.tryActivate(ch, r) {
			return
		}
	}

	// Pass 3: oldest request blocked by a row conflict; close the row if
	// no queued request still hits it (open-row policy). Hits in the
	// other queue must not veto the precharge — a row-hit write would
	// otherwise deadlock conflicting reads below the write-drain
	// watermark.
	for _, n := range queue {
		r := &n.req
		flat := c.flat(r.Loc.Rank, r.Loc.Bank)
		bank := &ch.banks[flat]
		if bank.reserved || !bank.open || bank.row == r.Loc.Row {
			continue
		}
		if c.now < bank.readyPRE || c.now < ch.ranks[r.Loc.Rank].refBusy {
			continue
		}
		if anyHit(bank.bq[k].head, bank.row) {
			continue
		}
		c.emit(ch, dram.Command{Kind: dram.KindPRE,
			Loc: dram.Location{BankID: dram.BankID{Rank: r.Loc.Rank, Bank: r.Loc.Bank}}})
		c.Stats.PREs++
		c.Stats.RowMisses++
		c.closeRow(ch, flat)
		bank.readyACT = maxTime(bank.readyACT, c.now+c.cfg.Timing.TRP)
		return
	}
}

// anyHit reports whether any request queued for a bank targets its open
// row. It walks the bank's FIFO rather than trusting the hit counter the
// optimized scheduler maintains.
func anyHit(head *reqNode, row int) bool {
	for n := head; n != nil; n = n.bnext {
		if n.req.Loc.Row == row {
			return true
		}
	}
	return false
}
