// Command antserve is the analysis-as-a-service daemon: it solves a
// constraint system once, keeps the session resident, and answers
// points-to / alias / callgraph / modref queries over a versioned JSON
// API while absorbing constraint deltas without re-solving from scratch
// (see DESIGN.md for the wire schema and the Session/Snapshot model).
//
// Usage:
//
//	antserve [-addr host:port] [-addrfile f]
//	         [-alg lcd] [-hcd] [-hvn] [-hu] [-diff] [-workers n] [-memo]
//	         (-f file.constraints | -c file.c | -go module-dir | -workload name [-scale s])
//
// Exactly one input source is required. -c compiles a C translation
// unit and -go a real Go module (docs/GOFRONTEND.md); both additionally
// enable the /v1/query/callgraph and /v1/query/modref endpoints (they
// need the unit's call-site tables).
// -addr defaults to 127.0.0.1:7970; ":0" picks a free port. -addrfile
// writes the actually-bound address to a file once the listener is up,
// so scripts (scripts/check.sh) can discover a dynamically chosen port.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"antgrass"
	"antgrass/internal/serve"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "antserve:", err)
	os.Exit(1)
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7970", "listen address (\":0\" picks a free port)")
	addrFile := flag.String("addrfile", "", "write the bound address to this file once listening")
	file := flag.String("f", "", "constraint file in the antgrass text format")
	cfile := flag.String("c", "", "C source file (enables callgraph/modref endpoints)")
	godir := flag.String("go", "", "Go module directory to analyze (enables callgraph/modref endpoints)")
	workload := flag.String("workload", "", "synthetic workload name (see antsolve -list)")
	scale := flag.Float64("scale", 1.0, "workload scale factor")
	alg := flag.String("alg", "lcd", "algorithm: naive, lcd, ht, pkh, pkw, blq")
	hcd := flag.Bool("hcd", false, "enable hybrid cycle detection")
	hvn := flag.Bool("hvn", false, "run offline HVN value numbering before solving (updates replay)")
	hu := flag.Bool("hu", false, "run offline HU value numbering before solving (updates replay)")
	diff := flag.Bool("diff", false, "enable difference propagation")
	workers := flag.Int("workers", 0, "parallel propagation workers (disables incremental resume)")
	memoFlag := flag.Bool("memo", false, "memoize repeated unions, diffs and offset-derefs on canonical set ids (same solution)")
	flag.Parse()

	sources := 0
	for _, s := range []string{*file, *cfile, *godir, *workload} {
		if s != "" {
			sources++
		}
	}
	if sources != 1 {
		fmt.Fprintln(os.Stderr, "usage: antserve (-f file | -c file.c | -go dir | -workload name) [flags]")
		os.Exit(2)
	}

	var prog *antgrass.Program
	var unit *antgrass.Unit
	switch {
	case *file != "":
		f, err := os.Open(*file)
		if err != nil {
			fatal(err)
		}
		prog, err = antgrass.ReadProgram(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	case *cfile != "":
		src, err := os.ReadFile(*cfile)
		if err != nil {
			fatal(err)
		}
		unit, err = antgrass.CompileC(string(src), antgrass.CGenOptions{})
		if err != nil {
			fatal(err)
		}
		prog = unit.Prog
	case *godir != "":
		var err error
		unit, err = antgrass.CompileGo(antgrass.GoOptions{Dir: *godir})
		if err != nil {
			fatal(err)
		}
		for _, w := range unit.Warnings {
			fmt.Fprintln(os.Stderr, "antserve: warning:", w)
		}
		prog = unit.Prog
	default:
		var err error
		prog, err = antgrass.Workload(*workload, *scale)
		if err != nil {
			fatal(err)
		}
	}

	opts := antgrass.Options{
		Algorithm: antgrass.Algorithm(*alg),
		HCD:       *hcd,
		HVN:       *hvn,
		HU:        *hu,
		DiffProp:  *diff,
		Workers:   *workers,
		Memo:      *memoFlag,
	}
	fmt.Fprintf(os.Stderr, "antserve: solving %d vars, %d constraints (alg=%s hcd=%v hvn=%v hu=%v)\n",
		prog.NumVars, len(prog.Constraints), *alg, *hcd, *hvn, *hu)
	sess, err := antgrass.NewSession(context.Background(), prog, opts)
	if err != nil {
		fatal(err)
	}
	st := sess.Snapshot().Stats()
	fmt.Fprintf(os.Stderr, "antserve: solved in %v (epoch %d)\n", st.SolveDuration, sess.Epoch())

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "antserve: listening on http://%s\n", bound)

	srv := &http.Server{Handler: serve.New(sess, unit).Handler()}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		if err != nil && err != http.ErrServerClosed {
			fatal(err)
		}
	case <-sig:
		fmt.Fprintln(os.Stderr, "antserve: shutting down")
		sess.Close() // fence updates; in-flight queries still answer
		_ = srv.Shutdown(context.Background())
	}
}
