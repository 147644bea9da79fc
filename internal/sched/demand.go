package sched

import "hira/internal/dram"

// drainWillFlip reports whether the next pickQueue evaluation would
// change ch.draining with the queues as they are — the hysteresis
// transition condition, shared with the idle skipper, which must not
// sleep across a phase change.
func (c *Controller) drainWillFlip(ch *channel) bool {
	readN, writeN := ch.q[qRead].count, ch.q[qWrite].count
	if ch.draining {
		return writeN <= writeLow
	}
	return writeN >= writeHigh || (readN == 0 && writeN > 0)
}

// pickQueue applies the write-drain hysteresis and returns the queue kind
// to serve, or -1 if there is nothing to do. Writes are served when the
// write queue is high or there is nothing else to do.
func (c *Controller) pickQueue(ch *channel) int {
	if c.drainWillFlip(ch) {
		ch.draining = !ch.draining
	}
	k := qRead
	if ch.draining {
		k = qWrite
	}
	if ch.q[k].count == 0 {
		if !ch.draining && ch.q[qWrite].count > 0 {
			return qWrite
		}
		return -1
	}
	return k
}

// scheduleDemand implements FR-FCFS with the open-row policy over the
// channel's read and write queues, using the per-bank buckets so each
// pass costs O(banks with work) instead of O(queue depth). It is
// command-for-command identical to the seed's linear scans over the
// arrival-ordered queue, which the test suite keeps as its oracle
// (reference_test.go; proved by TestControllerDifferential).
//
// One fused scan over the banks classifies each bank's work into the
// three passes: the oldest row hit (pass 1), per-bank cursors for the
// FCFS activation walk (pass 2), and the oldest conflict on a bank with
// no remaining hits (pass 3). Eligibility is a bank-level property, so
// classifying heads is enough; time-guard failures record wake-up events
// for the idle skipper.
func (c *Controller) scheduleDemand(ch *channel) {
	k := c.pickQueue(ch)
	if k < 0 {
		return
	}
	q := &ch.q[k]
	t := &c.cfg.Timing

	var hitBest, preBest *reqNode
	preFlat := -1
	cur := ch.cursors[:0]
	for _, flat := range q.active {
		bank := &ch.banks[flat]
		bq := &bank.bq[k]
		head := bq.head
		if bank.reserved {
			continue // freed by sequence/pending-PRE events
		}
		if !bank.open {
			if c.now < bank.readyACT {
				c.noteEvt(bank.readyACT)
				continue
			}
			cur = append(cur, p2cursor{node: head, flat: flat, left: bq.n})
			continue
		}
		rk := &ch.ranks[c.rankOf[flat]]
		if bq.hits > 0 {
			if c.now < bank.readyCol || c.now < rk.refBusy {
				c.noteEvt(bank.readyCol)
				c.noteEvt(rk.refBusy)
				continue
			}
			n := head
			for n.req.Loc.Row != bank.row {
				n = n.bnext
			}
			if hitBest == nil || n.seq < hitBest.seq {
				hitBest = n
			}
		} else {
			// No queued request of this bank targets the open row, so
			// every one of them conflicts and the oldest is the head.
			// Hits in the other queue must not veto the precharge — a
			// row-hit write would otherwise deadlock conflicting reads
			// below the write-drain watermark.
			if c.now < bank.readyPRE || c.now < rk.refBusy {
				c.noteEvt(bank.readyPRE)
				c.noteEvt(rk.refBusy)
				continue
			}
			if preBest == nil || head.seq < preBest.seq {
				preBest, preFlat = head, flat
			}
		}
	}

	// Pass 1 (FR): the oldest ready row hit. All requests in one queue
	// are the same kind, so burst start times coincide and a busy data
	// bus fails every candidate alike.
	if hitBest != nil {
		if c.issueColumn(ch, &hitBest.req) {
			c.Stats.RowHits++
			c.removeNode(ch, k, hitBest)
			return
		}
		lat := t.CL
		if k == qWrite {
			lat = t.CWL
		}
		c.noteEvt(ch.dataBusFree - lat)
	}

	// Pass 2 (FCFS): merge-walk the closed ready banks' FIFOs in arrival
	// order; like the seed's linear pass, a failed activation attempt
	// moves on to the next request rather than giving up. A canACT memo
	// prunes the walk: once an attempt fails for a rank (or for a rank's
	// same-group banks), every remaining request it covers is known to
	// fail identically, so only the blocked counter advances for them —
	// the engine-visible outcome matches attempting each one.
	if len(cur) > 0 {
		memo := ch.seq == nil
		for r := range ch.p2FailAll {
			ch.p2FailAll[r] = false
			ch.p2FailL[r] = false
		}
		parked := ch.parked[:0]
		for len(cur) > 0 {
			mi := 0
			for i := 1; i < len(cur); i++ {
				if cur[i].node.seq < cur[mi].node.seq {
					mi = i
				}
			}
			cu := cur[mi]
			n := cu.node
			rank := n.req.Loc.Rank
			sameGroup := c.groupOf[n.req.Loc.Bank] == ch.ranks[rank].lastACTGroup
			if memo && (ch.p2FailAll[rank] || (sameGroup && ch.p2FailL[rank])) {
				// A previous attempt already diagnosed this bank's wall;
				// park it. Its requests are counted in bulk once the
				// walk's stopping point is known — every one of them
				// would fail identically, so no attempt is re-run.
				parked = append(parked, cu)
				cur[mi] = cur[len(cur)-1]
				cur = cur[:len(cur)-1]
				continue
			}
			if c.tryActivate(ch, &n.req) {
				// The per-request reference walk stops exactly here:
				// parked requests older than the issuing one were
				// attempted (and counted blocked) before it, younger
				// ones were never reached.
				for _, p := range parked {
					for pn := p.node; pn != nil && pn.seq < n.seq; pn = pn.bnext {
						c.Stats.CanACTBlocked++
					}
				}
				ch.parked = parked[:0]
				return
			}
			if memo {
				// With no sequence active the only shared failure mode
				// is canACT, whose verdict spans the rank (or its
				// same-group banks).
				if sameGroup {
					ch.p2FailL[rank] = true
				} else {
					ch.p2FailAll[rank] = true
				}
				if n.bnext != nil {
					parked = append(parked, p2cursor{node: n.bnext, flat: cu.flat, left: cu.left - 1})
				}
				cur[mi] = cur[len(cur)-1]
				cur = cur[:len(cur)-1]
				continue
			}
			if n.bnext != nil {
				cur[mi].node = n.bnext
				cur[mi].left--
			} else {
				cur[mi] = cur[len(cur)-1]
				cur = cur[:len(cur)-1]
			}
		}
		// No activation issued: the reference walk attempted (and
		// counted) every request of every eligible bank.
		for _, p := range parked {
			c.Stats.CanACTBlocked += uint64(p.left)
		}
		ch.parked = parked[:0]
	}

	// Pass 3: close the oldest conflicting bank's row (open-row policy).
	if preBest != nil {
		r := &preBest.req
		c.emit(ch, dram.Command{Kind: dram.KindPRE,
			Loc: dram.Location{BankID: dram.BankID{Rank: r.Loc.Rank, Bank: r.Loc.Bank}}})
		c.Stats.PREs++
		c.Stats.RowMisses++
		c.closeRow(ch, preFlat)
		bank := &ch.banks[preFlat]
		bank.readyACT = maxTime(bank.readyACT, c.now+t.TRP)
	}
}

// tryActivate issues the ACT for request r, possibly as a HiRA prologue
// hiding a refresh (refresh-access parallelization). Returns true if a
// command was issued.
func (c *Controller) tryActivate(ch *channel, r *Request) bool {
	t := c.cfg.Timing
	// Ask the engine for a piggyback row (Case 1 of §5.1.3).
	if ch.seq == nil {
		if row, preventive, ok := c.engine.Piggyback(dram.Location{
			BankID: dram.BankID{Channel: ch.id, Rank: r.Loc.Rank, Bank: r.Loc.Bank},
			Row:    r.Loc.Row,
		}, c.now); ok {
			// Two activations t1+t2 apart: check power headroom for both.
			if c.canACT(ch, r.Loc.Rank, r.Loc.Bank, 2, t.T1+t.T2) {
				if c.forensics != nil {
					c.forensics.classifyRefresh(ch.id, c.flat(r.Loc.Rank, r.Loc.Bank),
						row, preventive, true)
				}
				c.startHiRASequence(ch, r.Loc.Rank, r.Loc.Bank, row, r.Loc.Row, true)
				c.Stats.HiRAPiggybacks++
				c.engine.NoteRefreshed(Op{Kind: OpRowRefresh, Rank: r.Loc.Rank, Bank: r.Loc.Bank, RowA: row},
					ch.id, c.now)
				return true
			}
		}
	}
	// A HiRA sequence's pre-timed ACTs must not race demand ACTs on the
	// same rank: the demand ACT must satisfy tRRD against the sequence's
	// pending activations (an ACT to a different bank group may legally
	// slot into the t1+t2 gap).
	if s := ch.seq; s != nil && s.rank == r.Loc.Rank {
		for _, sc := range s.cmds[s.next:s.n] {
			if sc.kind != dram.KindACT {
				continue
			}
			need := t.TRRD
			if c.groupOf[sc.bank] == c.groupOf[r.Loc.Bank] {
				need = t.TRRDL
			}
			if sc.due-c.now < need {
				c.Stats.SeqBlocked++
				return false
			}
		}
	}
	if !c.canACT(ch, r.Loc.Rank, r.Loc.Bank, 1, 0) {
		c.Stats.CanACTBlocked++
		return false
	}
	flat := c.flat(r.Loc.Rank, r.Loc.Bank)
	bank := &ch.banks[flat]
	c.emit(ch, dram.Command{Kind: dram.KindACT, Loc: r.Loc})
	c.Stats.ACTs++
	c.Stats.RowMisses++
	c.noteACT(ch, r.Loc.Rank, r.Loc.Bank)
	c.openRow(ch, flat, r.Loc.Row)
	bank.actAt = c.now
	bank.readyCol = c.now + t.TRCD
	bank.readyPRE = c.now + t.TRAS
	bank.readyACT = c.now + t.TRC
	if c.forensics != nil {
		c.forensics.demandACT(ch.id, flat, r.Loc.Row)
	}
	c.engine.NoteActivate(dram.Location{
		BankID: dram.BankID{Channel: ch.id, Rank: r.Loc.Rank, Bank: r.Loc.Bank},
		Row:    r.Loc.Row,
	}, true, c.now)
	return true
}

// issueColumn issues the RD or WR for a request whose row is open. Returns
// false if the data bus cannot carry the burst.
func (c *Controller) issueColumn(ch *channel, r *Request) bool {
	t := c.cfg.Timing
	var dataAt dram.Time
	if r.Write {
		dataAt = c.now + t.CWL
	} else {
		dataAt = c.now + t.CL
	}
	if ch.dataBusFree > dataAt {
		return false
	}
	bank := &ch.banks[c.flat(r.Loc.Rank, r.Loc.Bank)]
	kind := dram.KindRD
	if r.Write {
		kind = dram.KindWR
	}
	c.emit(ch, dram.Command{Kind: kind, Loc: r.Loc})
	ch.dataBusFree = dataAt + t.TBL
	bank.readyCol = c.now + t.TCCD
	if r.Write {
		bank.readyPRE = maxTime(bank.readyPRE, c.now+t.CWL+t.TBL+t.TWR)
	} else {
		bank.readyPRE = maxTime(bank.readyPRE, c.now+t.TRTP)
		c.Stats.Reads++
		c.Stats.ReadCount++
		c.Stats.ReadLatencySum += dataAt + t.TBL - r.Arrive
		if c.OnComplete != nil {
			c.OnComplete(r.Core, r.Token, dataAt+t.TBL)
		}
	}
	return true
}

// startHiRASequence begins the pre-timed ACT(RowA)-PRE-ACT(RowB) burst on
// a precharged bank. If access is true, RowB is a demand row that will be
// readable tRCD after the second ACT; otherwise RowB is also being
// refreshed and a closing precharge is scheduled tRAS after the second
// ACT (refresh-refresh parallelization; one PRE closes both rows).
func (c *Controller) startHiRASequence(ch *channel, rank, bank, rowA, rowB int, access bool) {
	t := c.cfg.Timing
	flat := c.flat(rank, bank)
	s := &ch.seqStore
	s.cmds[0] = seqCmd{kind: dram.KindACT, phase: dram.HiRAFirstACT, rank: rank, bank: bank, row: rowA, due: c.now}
	s.cmds[1] = seqCmd{kind: dram.KindPRE, phase: dram.HiRAInterruptPRE, rank: rank, bank: bank, row: rowA, due: c.now + t.T1}
	s.cmds[2] = seqCmd{kind: dram.KindACT, phase: dram.HiRASecondACT, rank: rank, bank: bank, row: rowB, due: c.now + t.T1 + t.T2}
	s.n, s.next = 3, 0
	s.rank, s.flat, s.access = rank, flat, access
	s.plannedSecond = c.now + t.T1 + t.T2
	ch.banks[flat].reserved = true
	ch.seq = s
	// The caller holds this tick's command-bus slot: issue the first ACT
	// immediately so t1 is measured from the sequence's real start.
	c.issueSeq(ch)
}
