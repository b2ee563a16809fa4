package facility

import "sort"

// The sort-per-pass scheduler: every pass re-sorts the pending queue by
// fairshare priority and every reservation allocates and sorts the
// running set. O(queue log queue) per pass — fine at 10^4 jobs, the
// ceiling the incremental scheduler removes — and kept verbatim as the
// oracle: the parity suite requires the heap scheduler to reproduce
// this path's start orders, digests and artefact bytes bit for bit
// across every knob combination. It plugs into the event loop through
// the Facility.sched seam (useSortScheduler).

// sortScheduler keeps each pool's pending jobs in priority order (see
// sortQueue) and the running set the per-pass reservation sort walks.
type sortScheduler struct {
	f       *Facility
	queue   [NumPools][]*jobRec
	running [NumPools][]*jobRec
}

// useSortScheduler replaces f's heap scheduler with the oracle. Call it
// before the run starts.
func useSortScheduler(f *Facility) { f.sched = &sortScheduler{f: f} }

func (s *sortScheduler) push(p *poolState, rec *jobRec) {
	s.queue[p.id] = append(s.queue[p.id], rec)
}

func (s *sortScheduler) pending(p *poolState) int { return len(s.queue[p.id]) }

func (s *sortScheduler) pass(p *poolState) { s.scheduleSort(p) }

func (s *sortScheduler) finished(p *poolState, rec *jobRec) {
	running := s.running[p.id]
	for i, r := range running {
		if r == rec {
			s.running[p.id] = append(running[:i], running[i+1:]...)
			break
		}
	}
}

// start dispatches rec and records it in the running set.
func (s *sortScheduler) start(p *poolState, rec *jobRec) {
	s.running[p.id] = append(s.running[p.id], rec)
	s.f.start(p, rec)
}

// sortQueue orders p's queue for one scheduling pass. Without fairshare
// the queue is already in (submit, seq) order — arrivals are events on
// the time-ordered heap — so FCFS needs no sort. With fairshare the key
// is (decayed usage / weight, submit, seq): usage decays at one shared
// rate, so relative tenant order only changes when usage is charged,
// and relabeling tenants cannot change the schedule (the order never
// depends on the tenant name itself — the order-invariance property).
func (s *sortScheduler) sortQueue(p *poolState) {
	f, queue := s.f, s.queue[p.id]
	if !f.cfg.Fairshare || len(queue) < 2 {
		return
	}
	type keyed struct {
		usage float64
		rec   *jobRec
	}
	keys := make([]keyed, len(queue))
	for i, r := range queue {
		keys[i] = keyed{f.share.usageAt(r.job.Tenant, f.clock), r}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.usage != b.usage {
			return a.usage < b.usage
		}
		if a.rec.job.Submit != b.rec.job.Submit {
			return a.rec.job.Submit < b.rec.job.Submit
		}
		return a.rec.seq < b.rec.seq
	})
	for i := range keys {
		queue[i] = keys[i].rec
	}
}

// scheduleSort is one pass of the sort-based scheduler: sort, start
// queue-order jobs while they fit, then backfill behind the head.
func (s *sortScheduler) scheduleSort(p *poolState) {
	s.sortQueue(p)
	for len(s.queue[p.id]) > 0 && s.queue[p.id][0].job.NP <= p.free {
		rec := s.queue[p.id][0]
		s.queue[p.id] = s.queue[p.id][1:]
		s.start(p, rec)
	}
	if len(s.queue[p.id]) == 0 || p.id != PoolHPC || !s.f.cfg.Backfill {
		return
	}
	s.backfillSort(p)
}

// backfillSort is the EASY pass: compute the head's reservation from
// the running jobs' planning bounds, then start later jobs that cannot
// delay it — they either finish (by their limit) before the
// reservation, or fit in the slots the head leaves spare.
func (s *sortScheduler) backfillSort(p *poolState) {
	f, queue := s.f, s.queue[p.id]
	head := queue[0]
	resv, spare := s.reservationSort(p, head)
	f.reserve(head, resv)
	depth := f.cfg.backfillDepth()
	kept := queue[:1]
	for i, rec := range queue[1:] {
		if i >= depth || p.free == 0 {
			kept = append(kept, queue[1+i:]...)
			break
		}
		fits := rec.job.NP <= p.free
		safe := f.clock+f.planDur(rec) <= resv || rec.job.NP <= spare
		if fits && safe {
			if f.clock+f.planDur(rec) > resv {
				spare -= rec.job.NP
			}
			s.start(p, rec)
			f.met.backfilled.Inc()
			continue
		}
		kept = append(kept, rec)
	}
	s.queue[p.id] = kept
}

// reservationSort returns the earliest time the head is guaranteed to
// fit (walking running jobs' planning-bound ends in ascending (at, seq)
// order — the same total order the heap path's release profile
// maintains), plus the slots still spare at that time after the head
// starts.
func (s *sortScheduler) reservationSort(p *poolState, head *jobRec) (resv float64, spare int) {
	f, running := s.f, s.running[p.id]
	ends := make([]release, len(running))
	for i, r := range running {
		ends[i] = release{at: f.releaseAt(r), np: r.job.NP, seq: r.seq}
	}
	sort.Slice(ends, func(i, j int) bool {
		if ends[i].at != ends[j].at {
			return ends[i].at < ends[j].at
		}
		return ends[i].seq < ends[j].seq
	})
	free := p.free
	resv = f.clock
	for _, e := range ends {
		if free >= head.job.NP {
			break
		}
		free += e.np
		resv = e.at
	}
	return resv, free - head.job.NP
}
