// Command mlb-run schedules one broadcast on a generated deployment and
// prints the schedule, its validation, and the physical replay.
//
// Usage:
//
//	mlb-run [-n 150] [-seed 1] [-r 0] [-sched gopt] [-v] [-json]
//
// -r 0 selects the round-based synchronous system; r > 1 the duty-cycle
// system with that cycle rate. -sched is one of opt, gopt, emodel,
// baseline, localized.
//
// -json swaps the human-readable output for one machine-readable object —
// the instance digest, the graphio-encoded Result, and the replay Report,
// the same schema `mlb-serve` answers with — so runs can be scripted
// against the service's contract.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"mlbs"
)

func main() {
	var (
		n        = flag.Int("n", 150, "number of nodes (paper sweeps 50..300)")
		seed     = flag.Uint64("seed", 1, "deployment seed")
		r        = flag.Int("r", 0, "duty-cycle rate r; 0 or 1 = synchronous")
		sched    = flag.String("sched", "gopt", "scheduler: opt|gopt|emodel|baseline|localized")
		channels = flag.Int("channels", 0, "orthogonal channels K; 0 or 1 = single shared channel")
		verbose  = flag.Bool("v", false, "print every advance")
		jsonMode = flag.Bool("json", false, "emit machine-readable digest+result+report JSON")
	)
	flag.Parse()
	if err := run(*n, *seed, *r, *channels, *sched, *verbose, *jsonMode); err != nil {
		fmt.Fprintln(os.Stderr, "mlb-run:", err)
		os.Exit(1)
	}
}

// jsonOutput mirrors the service's plan response: the content address of
// the instance, the result in graphio's schema, and the physical replay.
type jsonOutput struct {
	Digest string          `json:"digest"`
	Result json.RawMessage `json:"result"`
	Report *mlbs.Report    `json:"report"`
}

func emitJSON(in mlbs.Instance, res *mlbs.Result, rep *mlbs.Report) error {
	digest, err := mlbs.InstanceDigest(in)
	if err != nil {
		return err
	}
	resJSON, err := mlbs.EncodeResult(res)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(jsonOutput{Digest: digest.String(), Result: resJSON, Report: rep}, "", " ")
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(out))
	return err
}

func run(n int, seed uint64, r, channels int, schedName string, verbose, jsonMode bool) error {
	in, err := mlbs.PlanGenerator{N: n, Seed: seed, DutyRate: r, Channels: channels}.Instance()
	if err != nil {
		return err
	}
	ecc, _ := in.G.Eccentricity(in.Source)
	if !jsonMode {
		fmt.Printf("deployment: n=%d density=%.3f edges=%d source=%d ecc=%d seed=%d\n",
			n, mlbs.PaperTopologyConfig(n).Density(), in.G.M(), in.Source, ecc, seed)
	}

	if schedName == "localized" {
		rep, s, err := mlbs.LocalizedRun(in)
		if err != nil {
			return err
		}
		if jsonMode {
			return emitJSON(in, &mlbs.Result{Scheduler: "localized", Schedule: s, PA: s.PA()}, rep)
		}
		printOutcome(s, rep, r, ecc, verbose)
		return nil
	}

	var scheduler mlbs.Scheduler
	switch schedName {
	case "opt":
		scheduler = mlbs.OPT()
	case "gopt":
		scheduler = mlbs.GOPT()
	case "emodel":
		scheduler = mlbs.EModel()
	case "baseline":
		if r > 1 {
			scheduler = mlbs.Baseline17()
		} else {
			scheduler = mlbs.Baseline26()
		}
	default:
		return fmt.Errorf("unknown scheduler %q", schedName)
	}
	res, err := scheduler.Schedule(in)
	if err != nil {
		return err
	}
	if err := res.Schedule.Validate(in); err != nil {
		return fmt.Errorf("schedule failed validation: %w", err)
	}
	rep, err := mlbs.Replay(in, res.Schedule)
	if err != nil {
		return err
	}
	if jsonMode {
		return emitJSON(in, res, rep)
	}
	fmt.Printf("scheduler: %s  exact=%v  expanded=%d states\n",
		res.Scheduler, res.Exact, res.Stats.Expanded)
	printOutcome(res.Schedule, rep, r, ecc, verbose)
	return nil
}

func printOutcome(s *mlbs.Schedule, rep *mlbs.Report, r, ecc int, verbose bool) {
	radio := mlbs.Mica2()
	fmt.Printf("P(A)=%d latency=%d slots (%v on %s)\n",
		s.PA(), s.Latency(), radio.BroadcastTime(s.Latency()), radio.Name)
	bound := mlbs.SyncLatencyBound(ecc)
	if r > 1 {
		bound = mlbs.AsyncLatencyBound(r, ecc)
	}
	fmt.Printf("Theorem 1 bound: %d slots\n", bound)
	fmt.Printf("physics: completed=%v tx=%d rx=%d collisions=%d energy=%.4f J\n",
		rep.Completed, rep.Usage.Transmissions, rep.Usage.Receptions,
		rep.Usage.Collisions, radio.Energy(rep.Usage))
	if verbose {
		for _, adv := range s.Advances {
			fmt.Printf("  t=%-4d senders=%v covered=%v\n", adv.T, adv.Senders, adv.Covered)
		}
	}
}
