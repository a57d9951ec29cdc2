package server

import (
	"context"
	"encoding/json"
	"fmt"

	"paracosm/internal/algo"
	"paracosm/internal/core"
	"paracosm/internal/graph"
	"paracosm/internal/obs"
	"paracosm/internal/stream"
	"paracosm/internal/wal"
)

// This file is the server half of the durability layer (DESIGN.md §16):
// opening the WAL and restoring snapshot state at boot, the asynchronous
// log-tail replay behind the readiness gate, and the periodic/final
// snapshot writer. The wal package owns the on-disk formats; everything
// here is about replaying records through the same engine paths live
// traffic takes, so recovered state is bit-for-bit what an uninterrupted
// run would have produced.

// openWAL opens (or creates) the log in cfg.WALDir, loads the newest
// valid snapshot, initializes the engine from it (or from g when none
// exists — the very first boot), restores the snapshot's standing
// queries, and returns the LSN replay must resume after. Runs before any
// serving goroutine starts, so it needs no locking beyond what the
// callees take.
func (s *Server) openWAL(g *graph.Graph) (replayFrom uint64, err error) {
	snap, err := wal.LoadSnapshot(s.cfg.WALDir)
	if err != nil {
		return 0, fmt.Errorf("server: %w", err)
	}
	log, err := wal.Open(s.cfg.WALDir, wal.Options{Policy: s.cfg.Fsync, Interval: s.cfg.FsyncInterval})
	if err != nil {
		return 0, fmt.Errorf("server: %w", err)
	}
	s.wal = log
	s.mu.Lock()
	s.regs = make(map[string]wal.RegPayload)
	s.mu.Unlock()
	// persistFn is the ingestion loop's durability hook, built once: a
	// method value created per batch would allocate on the hot path (see
	// TestSharedPathAllocations).
	s.persistFn = func(batch stream.Stream) error {
		var clk obs.StageClock
		if s.tracer != nil {
			clk.Start()
		}
		_, err := s.wal.AppendUpdates(batch)
		if s.tracer != nil {
			clk.Mark(s.tracer.Stages(), obs.StageWALAppend)
		}
		return err
	}
	base := g
	if snap != nil {
		base = snap.Graph
		replayFrom = snap.LSN
	}
	if err := s.multi.Init(base); err != nil {
		s.wal.Close()
		return 0, err
	}
	if snap != nil {
		for _, q := range snap.Queries {
			if err := s.restoreQuery(q); err != nil {
				s.wal.Close()
				return 0, fmt.Errorf("server: restore query %q: %w", q.Name, err)
			}
		}
	} else if log.LastLSN() == 0 {
		// Fresh directory: snapshot the initial graph now, so the base
		// state recovery builds on is on disk and the caller's -graph file
		// is never needed again. (Skipped when the log already has records
		// with no snapshot — a snapshot here would wrongly claim coverage
		// of records not yet replayed.)
		s.snapshot()
	}
	return replayFrom, nil
}

// restoreQuery rebuilds one standing query from its snapshot row: the
// registration (index build over the restored graph), the stats baseline
// and the produced-delta Seq watermark. Boot-time only.
func (s *Server) restoreQuery(q wal.QueryState) error {
	entry, err := algo.ByName(q.Algo)
	if err != nil {
		return err
	}
	qg, err := buildQuery(q.Labels, q.Edges)
	if err != nil {
		return err
	}
	if err := s.multi.RegisterLive(q.Name, entry.New(), qg); err != nil {
		return err
	}
	if eng := s.multi.Engine(q.Name); eng != nil {
		eng.SeedStats(core.Stats{
			Updates:       q.Updates,
			SafeUpdates:   q.Safe,
			UnsafeUpdates: q.Unsafe,
			Escalations:   q.Escalations,
			Positive:      q.Positive,
			Negative:      q.Negative,
			Nodes:         q.Nodes,
		})
	}
	s.mu.Lock()
	s.regs[q.Name] = q.RegPayload
	s.produced[q.Name] = q.Produced
	s.mu.Unlock()
	return nil
}

// recoverLoop replays the log tail, publishes the outcome and opens the
// readiness gate. On failure the server shuts itself down: a server that
// could not recover must not serve (and must not snapshot) from a graph
// that disagrees with its log.
func (s *Server) recoverLoop(replayFrom uint64) {
	defer s.wg.Done()
	err := s.replay(replayFrom)
	s.mu.Lock()
	s.readyErr = err
	s.mu.Unlock()
	close(s.ready)
	if err != nil {
		s.cancel()
	}
}

// replay drives every log record with LSN > after through the live
// serving paths: updates are batched (up to BatchMax, like the ingestion
// loop) into ProcessBatch calls — whose fan-out re-advances the
// produced-Seq watermarks and whose engines re-accumulate the stats the
// newest snapshot had not yet captured — and registration records flush
// the pending batch first, preserving log order. Records are NOT
// re-appended: they are already durable.
func (s *Server) replay(after uint64) error {
	batch := make(stream.Stream, 0, s.cfg.BatchMax)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if s.cfg.recoverGate != nil {
			select {
			case <-s.cfg.recoverGate:
			case <-s.ctx.Done():
				return s.ctx.Err()
			}
		}
		applied, err := s.multi.ProcessBatch(context.Background(), batch)
		if err != nil {
			return err
		}
		if applied != len(batch) {
			// Every logged update was validated against the graph state it
			// was logged at; a rejection means the snapshot and the log
			// disagree about that state.
			return fmt.Errorf("server: replay applied %d of %d logged updates", applied, len(batch))
		}
		s.ingested.Add(uint64(applied))
		batch = batch[:0]
		return nil
	}
	err := s.wal.Replay(after, func(r wal.Record) error {
		select {
		case <-s.ctx.Done():
			return s.ctx.Err()
		default:
		}
		switch r.Kind {
		case wal.KindUpdate:
			u, err := stream.ParseUpdate(string(r.Payload))
			if err != nil {
				return fmt.Errorf("server: replay lsn %d: %w", r.LSN, err)
			}
			batch = append(batch, u)
			s.walReplayed.Add(1)
			if len(batch) >= s.cfg.BatchMax {
				return flush()
			}
		case wal.KindRegister:
			if err := flush(); err != nil {
				return err
			}
			var reg wal.RegPayload
			if err := json.Unmarshal(r.Payload, &reg); err != nil {
				return fmt.Errorf("server: replay lsn %d: %w", r.LSN, err)
			}
			if err := s.restoreQuery(wal.QueryState{RegPayload: reg}); err != nil {
				// A registration that cannot be rebuilt (e.g. its name
				// collided with a snapshot-restored query after an unclean
				// sequence) is skipped, not fatal: updates do not depend on
				// it and losing one query beats losing the whole store.
				s.walReplaySkip.Add(1)
				return nil
			}
			s.walReplayed.Add(1)
		case wal.KindDeregister:
			if err := flush(); err != nil {
				return err
			}
			var name string
			if err := json.Unmarshal(r.Payload, &name); err != nil {
				return fmt.Errorf("server: replay lsn %d: %w", r.LSN, err)
			}
			if !s.multi.Deregister(name) {
				s.walReplaySkip.Add(1)
				return nil
			}
			s.mu.Lock()
			delete(s.produced, name)
			delete(s.regs, name)
			s.mu.Unlock()
			s.walReplayed.Add(1)
		}
		return nil
	})
	if err != nil {
		return err
	}
	return flush()
}

// snapshot writes one durability snapshot: rotate the log so the sealed
// segments hold exactly the covered records, capture the consistent cut
// under the engine lock (ExportState — no batch or registration can
// interleave), write the state file atomically, then garbage-collect
// segments and older snapshots the new one obsoletes. Runs only where
// engine mutation is quiescent or excluded: the ingestion loop, boot,
// and post-join Close.
func (s *Server) snapshot() {
	var clk obs.StageClock
	if s.tracer != nil {
		clk.Start()
	}
	var lsn uint64
	err := s.multi.ExportState(func(g *graph.Graph, queries []core.QueryExport) error {
		if err := s.wal.Rotate(); err != nil {
			return err
		}
		lsn = s.wal.LastLSN()
		s.mu.Lock()
		states := make([]wal.QueryState, 0, len(queries))
		for _, q := range queries {
			reg, ok := s.regs[q.Name]
			if !ok {
				// Registered outside WAL mode's bookkeeping — impossible by
				// construction, but a snapshot missing one query's row beats
				// failing the snapshot.
				continue
			}
			states = append(states, wal.QueryState{
				RegPayload:  reg,
				Produced:    s.produced[q.Name],
				Updates:     q.Stats.Updates,
				Safe:        q.Stats.SafeUpdates,
				Unsafe:      q.Stats.UnsafeUpdates,
				Escalations: q.Stats.Escalations,
				Positive:    q.Stats.Positive,
				Negative:    q.Stats.Negative,
				Nodes:       q.Stats.Nodes,
			})
		}
		s.mu.Unlock()
		_, werr := wal.WriteSnapshot(s.cfg.WALDir, lsn, g, states)
		return werr
	})
	if err != nil {
		s.walSnapErrs.Add(1)
		s.trace(obs.SrvSnapshotErr, 1)
		return
	}
	s.walSnaps.Add(1)
	s.walSnapLSN.Store(lsn)
	s.trace(obs.SrvSnapshot, 1)
	// GC failures are cosmetic (leftover files are skipped or re-collected
	// next time); the snapshot itself is already durable.
	_ = s.wal.RemoveObsolete(lsn)
	_ = wal.RemoveSnapshotsBefore(s.cfg.WALDir, lsn)
	if s.tracer != nil {
		clk.Mark(s.tracer.Stages(), obs.StageSnapshot)
	}
}

// Ready reports whether recovery has completed successfully and the
// server is accepting traffic (always true for a server without a WAL
// once Start returns). It is the /healthz readiness predicate.
func (s *Server) Ready() bool {
	select {
	case <-s.ready:
		return s.Err() == nil
	default:
		return false
	}
}

// Err returns the terminal serving error: a failed recovery replay or a
// failed batch persist (either shuts the server down). nil while healthy.
func (s *Server) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.readyErr
}

// setErr records the first terminal serving error.
func (s *Server) setErr(err error) {
	s.mu.Lock()
	if s.readyErr == nil {
		s.readyErr = err
	}
	s.mu.Unlock()
}

// WaitReady blocks until recovery completes (returning its error), the
// server shuts down, or ctx expires.
func (s *Server) WaitReady(ctx context.Context) error {
	select {
	case <-s.ready:
		return s.Err()
	case <-s.ctx.Done():
		if err := s.Err(); err != nil {
			return err
		}
		return fmt.Errorf("server: closed before ready")
	case <-ctx.Done():
		return ctx.Err()
	}
}
