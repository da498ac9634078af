// Command xrprof inspects workload-profile dumps: the deterministic JSON
// snapshots the engine's profiler produces (repro.WithProfiling), which
// xrserved serves at GET /v1/scenarios/{name}/profile, persists beside
// scenario snapshots under -data-dir, and xrbench embeds in reports.
//
// Usage:
//
//	xrprof report [-top N] [-sort wall|conflicts|degraded] profile.json
//	xrprof diff   [-top N] [-sort wall|conflicts|degraded] old.json new.json
//
// report renders the top-N hardest signatures as a table. diff subtracts
// the old snapshot's per-signature counters from the new one's and
// renders the delta — the workload the window between the two dumps
// added. Both accept a bare snapshot (the persisted / xrbench form) or
// the /profile endpoint's response body (the snapshot is unwrapped from
// its "profile" field automatically), so
//
//	curl -s localhost:8080/v1/scenarios/genome/profile | xrprof report -top 5 -
//
// works directly. "-" reads standard input.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
	"time"

	"repro/internal/profile"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "report":
		err = runReport(os.Args[2:])
	case "diff":
		err = runDiff(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "xrprof: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "xrprof:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  xrprof report [-top N] [-sort wall|conflicts|degraded] profile.json
  xrprof diff   [-top N] [-sort wall|conflicts|degraded] old.json new.json
("-" reads the profile from standard input)`)
}

// sortFlags declares the flags shared by both subcommands.
func sortFlags(fs *flag.FlagSet) (top *int, sortBy *string) {
	top = fs.Int("top", 10, "signatures to show (0 = all)")
	sortBy = fs.String("sort", profile.SortWall, "order: wall, conflicts, or degraded")
	return top, sortBy
}

func runReport(args []string) error {
	fs := flag.NewFlagSet("xrprof report", flag.ExitOnError)
	top, sortBy := sortFlags(fs)
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("report: want exactly one profile file, got %d", fs.NArg())
	}
	if !profile.ValidSort(*sortBy) {
		return fmt.Errorf("unknown -sort %q (want wall, conflicts, or degraded)", *sortBy)
	}
	snap, err := readSnapshot(fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Printf("profile: %d signature record(s), %d solve(s), %d eviction(s)\n",
		snap.Records, snap.Solves, snap.Evictions)
	return render(os.Stdout, snap.Top(*top, *sortBy))
}

func runDiff(args []string) error {
	fs := flag.NewFlagSet("xrprof diff", flag.ExitOnError)
	top, sortBy := sortFlags(fs)
	_ = fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("diff: want two profile files (old new), got %d", fs.NArg())
	}
	if !profile.ValidSort(*sortBy) {
		return fmt.Errorf("unknown -sort %q (want wall, conflicts, or degraded)", *sortBy)
	}
	oldSnap, err := readSnapshot(fs.Arg(0))
	if err != nil {
		return err
	}
	newSnap, err := readSnapshot(fs.Arg(1))
	if err != nil {
		return err
	}
	delta := diffSnapshots(oldSnap, newSnap)
	fmt.Printf("profile delta: %+d solve(s) (%d -> %d), %d signature(s) with new work\n",
		newSnap.Solves-oldSnap.Solves, oldSnap.Solves, newSnap.Solves, len(delta.Signatures))
	return render(os.Stdout, delta.Top(*top, *sortBy))
}

// diffSnapshots subtracts old per-signature counters from new ones,
// keeping only signatures whose counters changed. A signature absent
// from the old snapshot (new, or since evicted there) contributes its
// full new-side counters.
func diffSnapshots(oldSnap, newSnap *profile.Snapshot) *profile.Snapshot {
	prev := make(map[string]*profile.SignatureProfile, len(oldSnap.Signatures))
	for i := range oldSnap.Signatures {
		prev[oldSnap.Signatures[i].Key] = &oldSnap.Signatures[i]
	}
	out := &profile.Snapshot{Signatures: []profile.SignatureProfile{}}
	for _, sp := range newSnap.Signatures {
		if p, ok := prev[sp.Key]; ok {
			sp.Counters = sp.Counters.Sub(p.Counters)
			sp.Wall.Count -= p.Wall.Count
			sp.Wall.SumNs -= p.Wall.SumNs
		}
		if sp.Counters == (profile.Counters{}) {
			continue
		}
		out.Signatures = append(out.Signatures, sp)
	}
	out.Records = len(out.Signatures)
	return out
}

// render prints signatures as an aligned table.
func render(w io.Writer, sigs []profile.SignatureProfile) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "SIGNATURE\tSOLVES\tWALL\tP95\tDECISIONS\tCONFLICTS\tCACHED\tREUSED\tRETRIES\tDEGRADED\tVIOL\tENV")
	for _, sp := range sigs {
		fmt.Fprintf(tw, "{%s}\t%d\t%v\t%v\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			sp.Key, sp.Solves,
			time.Duration(sp.WallNs).Round(time.Microsecond),
			time.Duration(int64(sp.Wall.P95)).Round(time.Microsecond),
			sp.Decisions, sp.Conflicts, sp.CacheHits, sp.ReuseHits,
			sp.Retries, sp.Degraded, sp.ClusterViolations, sp.EnvelopeFacts)
	}
	return tw.Flush()
}

// readSnapshot loads a profile dump: a bare snapshot, a wrapper carrying
// one under an object-valued "profile" key (the /profile response body —
// xrbench reports also have a "profile" key, but it holds the genome
// profile *name*), or an xrbench report, whose embedded hot-signatures
// block becomes the snapshot. Path "-" reads standard input.
func readSnapshot(path string) (*profile.Snapshot, error) {
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	var wrapped struct {
		Profile       json.RawMessage            `json:"profile"`
		ProfileSolves int64                      `json:"profile_solves"`
		HotSignatures []profile.SignatureProfile `json:"hot_signatures"`
	}
	if err := json.Unmarshal(data, &wrapped); err == nil {
		switch {
		case len(wrapped.Profile) > 0 && wrapped.Profile[0] == '{':
			data = wrapped.Profile
		case len(wrapped.HotSignatures) > 0:
			return &profile.Snapshot{
				Records:    len(wrapped.HotSignatures),
				Solves:     wrapped.ProfileSolves,
				Signatures: wrapped.HotSignatures,
			}, nil
		}
	}
	snap, err := profile.ParseSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return snap, nil
}
