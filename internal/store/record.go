// Package store is the matrix engine's durable flow-state store — the
// subsystem that makes "days, months, or even years" long datagridflows
// operationally survivable. It extends the execution journal's
// append-only record stream with three mechanisms:
//
//   - snapshots: periodic exec.snap records capture an execution's
//     resumable state (request document, scope variables, completed-step
//     cursor including delegated subtrees) in a single self-contained
//     record;
//   - segments + compaction: the stream is rotated into bounded segment
//     files, and Compact rewrites the live state (latest snapshot per
//     execution plus its tail) into one fresh segment, deleting the
//     history — disk usage and recovery replay become O(live state)
//     instead of O(all records ever written);
//   - passivation: idle executions are marked exec.passivate and dropped
//     from engine memory; the store keeps everything needed to resurrect
//     them on demand (status query, trigger firing, wire request or
//     federation delegation — see internal/matrix).
//
// A segment holds records in one of two encodings, sniffed from the
// file's first byte when the store opens: the journal's JSONL encoding
// (one JSON object per line, readable by the same tooling as a journal
// file) or the binary frame encoding of internal/codec (docs/CODEC.md),
// which replays several times faster and is the default for new
// segments when Options.Binary is set. A directory may mix encodings
// segment by segment — existing JSON directories replay unchanged.
package store

import "datagridflow/internal/codec"

// Record is one lifecycle record of the store (and of the matrix
// journal — the encodings are identical by construction). The
// definition lives in internal/codec so the binary and JSONL encoders
// share it; this alias keeps store.Record the canonical name for the
// storage layers.
type Record = codec.Record

// Record types, re-exported from internal/codec (see codec.Record for
// the semantics of each).
const (
	TypeExecStart  = codec.TypeExecStart
	TypeStepDone   = codec.TypeStepDone
	TypeDelegStart = codec.TypeDelegStart
	TypeDelegDone  = codec.TypeDelegDone
	TypeExecEnd    = codec.TypeExecEnd

	TypeExecSnap      = codec.TypeExecSnap
	TypeExecPassivate = codec.TypeExecPassivate
	TypeExecResurrect = codec.TypeExecResurrect
	TypeExecPrune     = codec.TypeExecPrune
)

// Waits is the one definition of a commit point (docs/STORE.md,
// "Durability"): what the writer of a record of type typ waits for
// before it goes on, because of what it is about to tell someone.
//
// fsync: the record is on this peer's disk. Everything waits except
// step.done — a step's completion is progress, told to nobody; losing
// it re-runs the step, which the retry and idempotence rules already
// cover. The engine writes it with Store.Write and it rides the next
// commit, or the linger.
//
// quorum: the follower set has acknowledged the record. Only a terminal
// outcome (a synchronous submitter is about to hear the flow finished)
// and a passivation (the caller is about to hear it is parked resumably)
// wait; every other record streams, and the cumulative ack at the next
// such point covers it.
func Waits(typ string) (fsync, quorum bool) {
	switch typ {
	case TypeStepDone:
		return false, false
	case TypeExecEnd, TypeExecPassivate:
		return true, true
	}
	return true, false
}
