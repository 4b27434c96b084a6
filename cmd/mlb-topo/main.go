// Command mlb-topo generates and inspects deployments: connectivity,
// degrees, diameter, boundary nodes, and the E-model quadrant estimates.
//
// Usage:
//
//	mlb-topo [-n 150] [-seed 1] [-r 0] [-etable] [-json out.json] [-load dep.json]
//
// With -load the deployment is read from JSON and -n is ignored: the wake
// schedule is sized by the loaded graph.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mlbs"
)

func main() {
	var (
		n      = flag.Int("n", 150, "number of nodes")
		seed   = flag.Uint64("seed", 1, "deployment seed")
		r      = flag.Int("r", 0, "duty-cycle rate for the E table; 0 = synchronous")
		etable = flag.Bool("etable", false, "print every node's E tuple")
		out    = flag.String("json", "", "write the deployment as JSON to this file")
		in     = flag.String("load", "", "load a deployment from JSON instead of generating")
	)
	flag.Parse()
	if err := run(os.Stdout, *n, *seed, *r, *etable, *out, *in); err != nil {
		fmt.Fprintln(os.Stderr, "mlb-topo:", err)
		os.Exit(1)
	}
}

// run writes the report to w. The generator's statistics (eccentricity
// check, placement and source draws) describe how a deployment was drawn,
// so they are printed for generated deployments only.
func run(w io.Writer, n int, seed uint64, r int, printE bool, jsonOut, jsonIn string) error {
	var (
		dep *mlbs.Deployment
		err error
	)
	if jsonIn != "" {
		data, rerr := os.ReadFile(jsonIn)
		if rerr != nil {
			return rerr
		}
		dep, err = mlbs.DecodeDeployment(data)
	} else {
		dep, err = mlbs.PaperDeployment(n, seed)
	}
	if err != nil {
		return err
	}
	if jsonOut != "" {
		data, eerr := mlbs.EncodeDeployment(dep)
		if eerr != nil {
			return eerr
		}
		if werr := os.WriteFile(jsonOut, data, 0o644); werr != nil {
			return werr
		}
		fmt.Fprintln(w, "deployment written to", jsonOut)
	}
	g := dep.G
	fmt.Fprintf(w, "deployment: n=%d area=%.0f×%.0f ft radius=%.0f ft density=%.3f\n",
		g.N(), dep.Cfg.AreaSide, dep.Cfg.AreaSide, dep.Cfg.Radius, dep.Cfg.Density())
	fmt.Fprintf(w, "edges=%d avg degree=%.2f max degree=%d\n", g.M(), g.AvgDegree(), g.MaxDegree())
	fmt.Fprintf(w, "source=%d eccentricity=%d", dep.Source, dep.SourceEcc)
	if jsonIn != "" {
		fmt.Fprintln(w)
	} else {
		fmt.Fprintln(w, " (paper requires 5..8)")
		fmt.Fprintf(w, "placements drawn=%d source draws=%d\n", dep.Attempts, dep.SourceDraws)
	}

	var in mlbs.Instance
	if r > 1 {
		in = mlbs.AsyncInstance(g, dep.Source, mlbs.UniformWake(g.N(), r, seed^0xA5), 0)
	} else {
		in = mlbs.SyncInstance(g, dep.Source)
	}
	tab, err := mlbs.BuildETable(in)
	if err != nil {
		return err
	}
	edgeCount := 0
	for _, e := range mlbs.EdgeNodes(g) {
		if e {
			edgeCount++
		}
	}
	fmt.Fprintf(w, "network-edge nodes: %d of %d; max E value: %.2f\n", edgeCount, g.N(), tab.MaxFinite())
	if printE {
		for u := 0; u < g.N(); u++ {
			fmt.Fprintf(w, "  node %3d at %v  E=[%.1f %.1f %.1f %.1f]\n",
				u, g.Pos(u), tab.E[u][0], tab.E[u][1], tab.E[u][2], tab.E[u][3])
		}
	}
	return nil
}
