// Command lasthop-journal inspects the proxy host's durable state, the
// write-ahead spool (lasthop-proxy -spool-dir): it lists every spooled
// session with its topics, Figure 7 queue depths and replay backlog, or,
// with -verify, checksum-verifies every record.
//
// Examples:
//
//	lasthop-journal -spool /var/lib/lasthop/spool
//	lasthop-journal -spool /var/lib/lasthop/spool -verify
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"lasthop/internal/core"
	"lasthop/internal/spool"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lasthop-journal:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		spoolDir = flag.String("spool", "", "host spool directory to inspect (the -spool-dir of lasthop-proxy, or one worker-N subdirectory)")
		verify   = flag.Bool("verify", false, "checksum-verify every record instead of listing sessions")
	)
	flag.Parse()

	if *spoolDir == "" {
		flag.Usage()
		return fmt.Errorf("-spool is required")
	}
	if *verify {
		return verifySpool(*spoolDir)
	}
	return listSpool(*spoolDir)
}

func warnf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lasthop-journal: "+format+"\n", args...)
}

// workerDirs resolves the directories to scan: dir itself when it holds
// segments directly, otherwise its worker-* subdirectories.
func workerDirs(dir string) ([]string, error) {
	if segs, err := spool.ListSegments(dir); err == nil && len(segs) > 0 {
		return []string{dir}, nil
	}
	subs, err := filepath.Glob(filepath.Join(dir, "worker-*"))
	if err != nil {
		return nil, err
	}
	sort.Strings(subs)
	if len(subs) == 0 {
		return nil, fmt.Errorf("no spool segments or worker-* directories under %s", dir)
	}
	return subs, nil
}

// sessionChain accumulates one session's spool chain during a scan: the
// latest snapshot wins (compaction may leave older duplicates), deltas
// after it count toward the replay backlog, and a newer tombstone ends
// the session.
type sessionChain struct {
	snap    spool.Record
	snapped bool
	deltas  int
	tombed  bool
	tombAt  time.Time
}

// listSpool prints every spooled session with its topics and Figure 7
// queue depths, decoded from the latest snapshot.
func listSpool(dir string) error {
	dirs, err := workerDirs(dir)
	if err != nil {
		return err
	}
	sessions := make(map[string]*sessionChain)
	for _, d := range dirs {
		err := spool.ScanDir(d, 0, warnf, func(_ spool.Loc, r spool.Record) error {
			c := sessions[r.Name]
			if c == nil {
				c = &sessionChain{}
				sessions[r.Name] = c
			}
			switch r.Kind {
			case spool.KindSnapshot:
				if !c.snapped || !r.At.Before(c.snap.At) {
					c.snap = r
					c.snapped = true
					c.deltas = 0
				}
			case spool.KindDelta:
				if c.snapped && !r.At.Before(c.snap.At) {
					c.deltas++
				}
			case spool.KindTombstone:
				c.tombed = true
				c.tombAt = r.At
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	names := make([]string, 0, len(sessions))
	for name := range sessions {
		names = append(names, name)
	}
	sort.Strings(names)
	live := 0
	for _, name := range names {
		c := sessions[name]
		if !c.snapped || (c.tombed && c.tombAt.After(c.snap.At)) {
			continue
		}
		live++
		var snap core.ProxySnapshot
		if err := json.Unmarshal(c.snap.Payload, &snap); err != nil {
			fmt.Printf("%-24s  snapshot %s  UNDECODABLE: %v\n",
				name, c.snap.At.Format(time.RFC3339), err)
			continue
		}
		outgoing, prefetch, holding, delayed, history := 0, 0, 0, 0, 0
		topics := make([]string, 0, len(snap.Topics))
		for _, td := range snap.Topics {
			topics = append(topics, td.State.Topic)
			outgoing += len(td.State.Outgoing)
			prefetch += len(td.State.Prefetch)
			holding += len(td.State.Holding)
			delayed += len(td.State.Delayed)
			history += len(td.State.History)
		}
		fmt.Printf("%-24s  snapshot %s  topics=%d %v  deltas=%d  outgoing=%d prefetch=%d holding=%d delayed=%d history=%d\n",
			name, c.snap.At.Format(time.RFC3339), len(topics), topics, c.deltas,
			outgoing, prefetch, holding, delayed, history)
	}
	fmt.Printf("%d live sessions (%d names seen) across %d worker dirs\n", live, len(sessions), len(dirs))
	return nil
}

// verifySpool re-reads every record of every segment, which re-checks
// each record's CRC, and reports the per-segment tallies. Torn or
// corrupt regions are warned about by the scan itself; the command fails
// if any segment held no readable records despite being non-empty.
func verifySpool(dir string) error {
	dirs, err := workerDirs(dir)
	if err != nil {
		return err
	}
	totalRecords, totalSegments := 0, 0
	failed := false
	for _, d := range dirs {
		segs, err := spool.ListSegments(d)
		if err != nil {
			return err
		}
		for _, seg := range segs {
			records, bytes := 0, int64(0)
			kinds := make(map[spool.Kind]int)
			err := spool.ScanSegment(seg, 0, warnf, func(_ spool.Loc, r spool.Record) error {
				records++
				bytes += int64(len(r.Payload) + len(r.Meta))
				kinds[r.Kind]++
				return nil
			})
			if err != nil {
				return err
			}
			fi, statErr := os.Stat(seg)
			if statErr == nil && fi.Size() > 0 && records == 0 {
				failed = true
				warnf("%s: %d bytes but no readable records", seg, fi.Size())
			}
			fmt.Printf("%s  %d records (%d snapshots, %d deltas, %d tombstones)  %d payload bytes\n",
				seg, records, kinds[spool.KindSnapshot], kinds[spool.KindDelta], kinds[spool.KindTombstone], bytes)
			totalRecords += records
			totalSegments++
		}
	}
	fmt.Printf("%d records across %d segments verified\n", totalRecords, totalSegments)
	if failed {
		return fmt.Errorf("verification found unreadable segments")
	}
	return nil
}
