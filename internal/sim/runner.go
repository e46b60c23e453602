package sim

import (
	"context"
	"fmt"
)

// runner is the resumable state of a System's step loop. RunContext drives
// one runner to completion in a single call; the batch runner drives many
// runners (one per lane) against a shared record stream, pausing a lane
// whenever its next core would read past the stream window.
//
// The loop body is the exact sequence the monolithic RunContext executed,
// so a runner paused and resumed at window edges performs the same steps
// in the same order as one driven straight through: results are
// bit-identical regardless of where it pauses.
type runner struct {
	s         *System
	ctx       context.Context
	cancelCh  <-chan struct{}
	sched     *coreHeap
	remaining int
	guard     uint64
	guardMax  uint64
	// limits/consumed, when limits is non-nil, gate the runner against a
	// shared stream window: before stepping the scheduled core the runner
	// checks consumed[core] < limits[core] and pauses (run returns not done)
	// otherwise. The heap order is part of the deterministic schedule, so a
	// refused core blocks the whole lane — stepping any other core would
	// change results. limits is shared across a batch's lanes (runLockstep
	// advances it); consumed counts this lane's per-core records.
	limits   []uint64
	consumed []uint64
}

// newRunner validates the workload and builds the scheduler. It mirrors
// the prologue of the former RunContext verbatim.
func (s *System) newRunner(ctx context.Context) (*runner, error) {
	var cancelCh <-chan struct{}
	if ctx != nil {
		cancelCh = ctx.Done()
	}
	var activeIDs []int
	for c := range s.readers {
		if s.readers[c] != nil {
			activeIDs = append(activeIDs, c)
		} else {
			s.finishedAt[c] = recorded{done: true}
		}
	}
	active := len(activeIDs)
	if active == 0 {
		return nil, fmt.Errorf("sim: no active cores")
	}
	if s.cfg.Warmup == 0 {
		s.warmupDone = true
	}

	// Earliest-core scheduling via an indexed min-heap on (cycle, coreID):
	// O(log cores) per step instead of the old O(cores) scan, with the same
	// deterministic lowest-ID tie-break (see coreHeap). Finished cores keep
	// running — their traces loop so contention persists — so heap
	// membership is fixed for the whole run and only the stepped core's key
	// ever changes.
	sched := newCoreHeap(activeIDs, func(c int) uint64 { return s.cores[c].Cycle() })

	return &runner{
		s:         s,
		ctx:       ctx,
		cancelCh:  cancelCh,
		sched:     sched,
		remaining: active,
		guardMax:  64 * s.totalTarget * uint64(active),
	}, nil
}

// run advances the system until every active core reaches its target
// (done) or the gate refuses the next scheduled core (not done: call run
// again once the gate admits it). The guard and cancellation counters
// persist across calls, so pausing a run changes nothing about its
// behavior.
func (r *runner) run() (done bool, err error) {
	s := r.s
	for r.remaining > 0 {
		if r.cancelCh != nil && r.guard&1023 == 0 {
			select {
			case <-r.cancelCh:
				return false, fmt.Errorf("sim: run cancelled after %d steps: %w", r.guard, r.ctx.Err())
			default:
			}
		}
		coreID := r.sched.min()
		budget := ^uint64(0)
		if r.limits != nil {
			if c := r.consumed[coreID]; c < r.limits[coreID] {
				budget = r.limits[coreID] - c
			} else {
				return false, nil
			}
		}
		var consumed uint64 = 1
		if s.expCursors != nil {
			// May replay a whole run of core-local records (see
			// stepExpandedN); a run executes under one heap step, which is
			// schedule-equivalent because local records touch no shared
			// state and heap keys are non-decreasing.
			consumed = r.stepExpandedN(coreID, budget)
		} else {
			s.step(coreID)
		}
		if r.limits != nil {
			r.consumed[coreID] += consumed
		}
		r.sched.fixMin(s.cores[coreID].Cycle())
		if !s.finishedAt[coreID].done && s.cores[coreID].Instructions()+s.warmupBase() >= s.totalTarget {
			core := s.cores[coreID]
			s.finishedAt[coreID] = recorded{
				done:   true,
				cycles: core.Cycles(),
				instrs: core.Instructions(),
				ipc:    core.IPC(),
			}
			r.remaining--
		}
		// Warmup can only complete on a step where the stepped core itself
		// crossed the budget (every other core's count is unchanged), so
		// skip the all-cores scan otherwise.
		if !s.warmupDone && s.cores[coreID].Instructions() >= s.cfg.Warmup {
			s.maybeFinishWarmup()
		}
		if consumed > 1 {
			r.guard += consumed - 1 // guard counts records, not heap steps
		}
		if r.guard++; r.guard > r.guardMax && r.guardMax > 0 {
			detail := ""
			for c := range s.cores {
				if s.readers[c] != nil {
					detail += fmt.Sprintf(" core%d[i=%d c=%d done=%v]", c, s.cores[c].Instructions(), s.cores[c].Cycles(), s.finishedAt[c].done)
				}
			}
			return false, fmt.Errorf("sim: run exceeded %d steps without completing:%s", r.guardMax, detail)
		}
	}
	return true, nil
}

// finishRun closes telemetry and collects the result once a runner reports
// done. It mirrors the epilogue of the former RunContext verbatim.
func (s *System) finishRun() (*Result, error) {
	if s.telem != nil {
		s.telem.flush(s, true)
		if s.telem.err != nil {
			return nil, fmt.Errorf("sim: telemetry sink: %w", s.telem.err)
		}
	}
	return s.collect(), nil
}
