package workload_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/workload"
)

// TestProtectSettledMatchesTickByTick: core.Protect with copy-on-write
// accounting reads each rank's space at every capture and closes each
// segment's drain window at its own instant; settling the held sweeps
// there gives the result ticking them one by one does — volumes, commit
// times, every coordinated checkpoint's per-rank results and the CoW
// traffic, which counts only the faults before each window's end.
func TestProtectSettledMatchesTickByTick(t *testing.T) {
	var cow float64
	for _, app := range []string{"Sage-1000MB", "Sage-50MB", "Sweep3D", "FT"} {
		for _, iv := range []des.Time{10 * des.Second, 3 * des.Second} {
			t.Run(fmt.Sprintf("%s/%v", app, iv), func(t *testing.T) {
				cfg := core.ProtectConfig{App: app, Ranks: 4, Interval: iv, FullEvery: 4, TrackCow: true, Seed: 7}
				restore := workload.TickByTick()
				want, err := core.Protect(cfg)
				restore()
				if err != nil {
					t.Fatal(err)
				}
				got, err := core.Protect(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("tick by tick: %d checkpoints, %.6f MB, CoW %.6f MB, commit %.6f s\\nsettled: %d checkpoints, %.6f MB, CoW %.6f MB, commit %.6f s",
						want.Checkpoints, want.TotalMB, want.CowMB, want.MaxCommitS, got.Checkpoints, got.TotalMB, got.CowMB, got.MaxCommitS)
				}
				cow += want.CowMB
			})
		}
	}
	if cow == 0 {
		t.Fatal("no run copied a page on write: the CoW check is vacuous")
	}
}

// TestProtectCountedMatchesMessageByMessage is
// TestObservedMessagesMatchMessageByMessage's core.Protect case: every
// rank handed out to a copy-on-write checkpointer, whose captures and
// drain ends read each space and so settle the deposits of the messages
// into it. Counting the ring links gives the result sending every message
// through the message path (MessageByMessage) does, CoW traffic included.
func TestProtectCountedMatchesMessageByMessage(t *testing.T) {
	var cow float64
	for _, app := range []string{"Sage-1000MB", "Sage-50MB", "Sweep3D", "FT"} {
		for _, iv := range []des.Time{10 * des.Second, 3 * des.Second} {
			t.Run(fmt.Sprintf("%s/%v", app, iv), func(t *testing.T) {
				cfg := core.ProtectConfig{App: app, Ranks: 4, Interval: iv, FullEvery: 4, TrackCow: true, Seed: 7}
				restore := workload.MessageByMessage()
				want, err := core.Protect(cfg)
				restore()
				if err != nil {
					t.Fatal(err)
				}
				got, err := core.Protect(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("message by message: %d checkpoints, %.6f MB, CoW %.6f MB, commit %.6f s\ncounted: %d checkpoints, %.6f MB, CoW %.6f MB, commit %.6f s",
						want.Checkpoints, want.TotalMB, want.CowMB, want.MaxCommitS, got.Checkpoints, got.TotalMB, got.CowMB, got.MaxCommitS)
				}
				cow += want.CowMB
			})
		}
	}
	if cow == 0 {
		t.Fatal("no run copied a page on write: the CoW check is vacuous")
	}
}
