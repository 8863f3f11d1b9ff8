package chaos

import (
	"fmt"

	"puddles/internal/plog"
	"puddles/internal/pmem"
	"puddles/internal/puddle"
	"puddles/internal/uid"
)

// ShardedLogChurn is the log-directory counterpart of Sweep: it
// power-fails AddLog/RemoveLog traffic on a sharded log space and
// checks the directory's crash atomicity. After each injected failure
// the space is reopened exactly as daemon recovery would open it
// (OpenShardedLogSpace) and the recovered registration set must be
// precisely explainable:
//
//   - every acked AddLog that was not acked-removed (and is not the
//     target of the in-flight operation) is present — recovery will
//     replay it;
//   - no head that was never registered is present — recovery cannot
//     invent logs;
//   - the one in-flight Add or Remove may have landed or not (its slot
//     publishes with a single 8-byte store), but nothing else moves.
func ShardedLogChurn(shards int, maxOffset, stride int64) (Result, error) {
	res := Result{Scenario: fmt.Sprintf("sharded-log-churn-%d", shards)}
	for off := int64(1); off < maxOffset; off += stride {
		crashed, err := logChurnOnce(shards, off, &res)
		if err != nil {
			return res, fmt.Errorf("chaos sharded-log-churn @%d: %w", off, err)
		}
		res.Probes++
		if !crashed {
			res.Completed++
			break
		}
	}
	return res, nil
}

// logChurnState tracks what the churn acked so the post-crash check
// can compute the set of registrations that must / may / must-not
// exist.
type logChurnState struct {
	added    map[pmem.Addr]bool // acked AddLog
	removed  map[pmem.Addr]bool // acked RemoveLog
	inflight pmem.Addr          // head of the op in progress (0 = none)
}

func logChurnOnce(shards int, off int64, res *Result) (crashed bool, err error) {
	dev := pmem.NewChaos(off)
	const spaceBase = pmem.Addr(2 << 20)
	spaceSize := plog.SpaceSize(shards)
	// Setup runs crash-free: a log-space puddle plus a pile of small
	// formatted logs to register.
	pd, err := puddle.Format(dev, spaceBase, spaceSize, uid.New(), puddle.KindLogSpace, uid.Nil)
	if err != nil {
		return false, fmt.Errorf("format space puddle: %w", err)
	}
	space, err := plog.FormatShardedLogSpace(pd, shards)
	if err != nil {
		return false, fmt.Errorf("format sharded space: %w", err)
	}
	const nLogs = 12
	heads := make([]pmem.Addr, nLogs)
	logBase := spaceBase + pmem.Addr(spaceSize)
	for i := range heads {
		start := logBase + pmem.Addr(i)*0x4000
		l, err := plog.FormatLog(dev, pmem.Range{Start: start, End: start + 0x4000})
		if err != nil {
			return false, fmt.Errorf("format log %d: %w", i, err)
		}
		heads[i] = l.Head()
	}

	st := &logChurnState{added: map[pmem.Addr]bool{}, removed: map[pmem.Addr]bool{}}
	dev.CrashAtEvent(dev.Events() + off)
	func() {
		defer func() {
			if r := recover(); r != nil {
				if !pmem.IsCrash(r) {
					panic(r)
				}
				crashed = true
			}
		}()
		// Churn: register everything round-robin across shards, then
		// unregister a prefix — every persistence event in AddLog and
		// RemoveLog lands under some crash offset of the sweep.
		for i, h := range heads {
			st.inflight = h
			if err = space.AddLog(i%shards, h, uid.New()); err != nil {
				return
			}
			st.added[h] = true
			st.inflight = 0
		}
		for i := 0; i < nLogs/2; i++ {
			h := heads[i]
			st.inflight = h
			if !space.RemoveLog(i%shards, h) {
				err = fmt.Errorf("acked registration %#x missing before crash", uint64(h))
				return
			}
			st.removed[h] = true
			st.inflight = 0
		}
	}()
	if !crashed && err != nil {
		return false, fmt.Errorf("churn: %w", err)
	}
	if !crashed {
		dev.CrashAtEvent(0) // disarm
		dev.CrashNow()      // still power-fail after completion
	}

	// "Reboot": reopen the directory the way daemon recovery does.
	pd2, err := puddle.Open(dev, spaceBase)
	if err != nil {
		res.Violations = append(res.Violations,
			fmt.Sprintf("offset %d (crashed=%v): reopen puddle: %v", off, crashed, err))
		return crashed, nil
	}
	reopened, err := plog.OpenShardedLogSpace(pd2)
	if err != nil {
		res.Violations = append(res.Violations,
			fmt.Sprintf("offset %d (crashed=%v): reopen space: %v", off, crashed, err))
		return crashed, nil
	}
	got := map[pmem.Addr]bool{}
	for _, h := range reopened.Logs() {
		got[h] = true
	}
	valid := map[pmem.Addr]bool{}
	for _, h := range heads {
		valid[h] = true
	}
	violate := func(format string, args ...any) {
		res.Violations = append(res.Violations,
			fmt.Sprintf("offset %d (crashed=%v): %s", off, crashed, fmt.Sprintf(format, args...)))
	}
	for h := range got {
		if !valid[h] {
			violate("recovered unknown log head %#x", uint64(h))
		}
	}
	for h := range st.added {
		mustHave := !st.removed[h] && h != st.inflight
		mustNot := st.removed[h] && h != st.inflight
		switch {
		case mustHave && !got[h]:
			violate("acked registration %#x lost", uint64(h))
		case mustNot && got[h]:
			violate("acked removal %#x came back", uint64(h))
		}
	}
	for h := range got {
		if !st.added[h] && h != st.inflight {
			violate("log %#x present but never acked (and not in flight)", uint64(h))
		}
	}
	return crashed, nil
}
