package sched_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"hira/internal/sched"
	"hira/internal/snap"
)

// controllerSnapshotDigests pins the controller codec's bytes: the
// sha256 over every snapshot TestControllerSnapshotGolden takes, per
// refresh policy. A change here means checkpoints written by an older
// build no longer describe the same controller state; any refactor of
// the queues or the codec must leave these untouched.
var controllerSnapshotDigests = map[string]string{
	"NoRefresh":   "2c9871687c97246e90212c8099394a178d1a867e5d380a1cc3aaae57a46ef420",
	"Baseline":    "f9d721e0d5b3cbcd053656ba683051f5f62b5456d370d721cd00a4e9fe6eab46",
	"HiRA-2":      "84b3defbe27f3f5261ad1d4bb9f454378a8f43ab4af5cf731b312b7b3a47eca4",
	"PARA":        "9f35f9b2b359c9278c6e3e364fb184e7c248412dc1ada15d9885dfe2fcb8548b",
	"PARA+HiRA-4": "fc1482be2b3416e584578e8510c2fa10919f6fe6f2ad9c07f302618abe6ba6b5",
	"Graphene":    "84f9da17a5f4003d959e604fb21af42376a2717a7e70e223783f559469c0b5a5",
	"RFM":         "02053afd4f443a3c265b222f984249916c8f59268344b2662d39b7cbded04a4f",
}

// TestControllerSnapshotGolden drives diffDrive's fixed request schedule
// under every differential policy, snapshots the controller every 997
// ticks (queues full, draining and empty all occur), round-trips each
// snapshot through Restore into a fresh controller, and compares the
// digest of all snapshots with the pinned one. The schedule length does
// not depend on -short, so the digest is the same in every mode.
func TestControllerSnapshotGolden(t *testing.T) {
	org := diffOrg()
	tm := diffTiming()
	for _, pol := range diffPolicies() {
		pol := pol
		t.Run(pol.name, func(t *testing.T) {
			t.Parallel()
			c, err := sched.NewController(sched.Config{Org: org, Timing: tm}, pol.mk(t, org, tm))
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			w := snap.NewWriter()
			tick, snaps := 0, 0
			diffDrive(t, c, org, 60000, func() {
				c.Tick()
				if tick++; tick%997 != 0 {
					return
				}
				w.Reset()
				c.Snapshot(w)
				data := w.Bytes()
				h.Write(data)
				snaps++

				back, err := sched.NewController(sched.Config{Org: org, Timing: tm}, pol.mk(t, org, tm))
				if err != nil {
					t.Fatal(err)
				}
				if err := back.Restore(snap.NewReader(data), 1); err != nil {
					t.Fatalf("tick %d: restore: %v", tick, err)
				}
				again := snap.NewWriter()
				back.Snapshot(again)
				if !bytes.Equal(again.Bytes(), data) {
					t.Fatalf("tick %d: snapshot of the restored controller differs", tick)
				}
			})
			if snaps == 0 {
				t.Fatal("no snapshots taken")
			}
			got := hex.EncodeToString(h.Sum(nil))
			if want := controllerSnapshotDigests[pol.name]; got != want {
				t.Errorf("snapshot digest %s, want %s", got, want)
			}
		})
	}
}
