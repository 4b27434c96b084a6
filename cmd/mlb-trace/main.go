// Command mlb-trace renders the paper's schedule-derivation tables: the
// time counter M evaluated for every greedy color along the optimal path.
//
// Usage:
//
//	mlb-trace -table 2   # Table II  (Figure 2(a), synchronous)
//	mlb-trace -table 3   # Table III (Figure 1(c), synchronous)
//	mlb-trace -table 4   # Table IV  (Figure 2(e), duty cycle r=10)
//	mlb-trace -n 60 -seed 3 -r 10   # trace an arbitrary deployment
package main

import (
	"flag"
	"fmt"
	"os"

	"mlbs"
)

func main() {
	var (
		table = flag.Int("table", 0, "paper table to reproduce: 2, 3 or 4")
		n     = flag.Int("n", 0, "trace a generated deployment of n nodes instead")
		seed  = flag.Uint64("seed", 1, "deployment seed")
		r     = flag.Int("r", 0, "duty-cycle rate for generated deployments")
		full  = flag.Bool("full", false, "print the whole decision tree, not just the optimal path")
	)
	flag.Parse()
	if err := run(*table, *n, *seed, *r, *full); err != nil {
		fmt.Fprintln(os.Stderr, "mlb-trace:", err)
		os.Exit(1)
	}
}

// fig1Namer labels Figure 1 nodes as the paper does: s, 0..10.
func fig1Namer(u mlbs.NodeID) string {
	if u == 0 {
		return "s"
	}
	return fmt.Sprintf("%d", u-1)
}

// fig2Namer labels Figure 2 nodes 1..5.
func fig2Namer(u mlbs.NodeID) string { return fmt.Sprintf("%d", u+1) }

func run(table, n int, seed uint64, r int, full bool) error {
	var (
		in    mlbs.Instance
		namer func(mlbs.NodeID) string
		title string
	)
	switch {
	case table == 2:
		g, src := mlbs.Figure2()
		in, namer = mlbs.SyncInstance(g, src), fig2Namer
		title = "Table II — Figure 2(a), round-based, t_s = 1"
	case table == 3:
		g, src := mlbs.Figure1()
		in, namer = mlbs.SyncInstance(g, src), fig1Namer
		title = "Table III — Figure 1(c), round-based, t_s = 1"
	case table == 4:
		g, src := mlbs.Figure2()
		in = mlbs.Instance{G: g, Source: src, Start: 2, Wake: mlbs.TableIVWake()}
		namer = fig2Namer
		title = "Table IV — Figure 2(e), duty cycle r = 10, t_s = 2"
	case n > 0:
		var err error
		if in, err = (mlbs.PlanGenerator{N: n, Seed: seed, DutyRate: r}).Instance(); err != nil {
			return err
		}
		title = fmt.Sprintf("G-OPT trace — n=%d seed=%d r=%d", n, seed, r)
	default:
		return fmt.Errorf("specify -table 2|3|4 or -n <nodes>")
	}

	var (
		rows []mlbs.TraceRow
		err  error
	)
	if full {
		rows, err = mlbs.TraceTree(in, 0, 0)
		title += " (full decision tree)"
	} else {
		rows, err = mlbs.TraceGOPT(in, 0)
	}
	if err != nil {
		return err
	}
	fmt.Println(title)
	fmt.Print(mlbs.RenderTrace(rows, namer))
	return nil
}
