// Command omlint validates an OpenMetrics text exposition against the
// grammar checker in internal/observatory: metric/label name charsets,
// family typing and sample-suffix legality, label escaping, histogram
// bucket monotonicity, and the terminal # EOF. cmd/flextm's
// TestLiveObservatory runs the same checker over a live scrape in-process.
//
//	curl -s http://127.0.0.1:8080/metrics | omlint
//	omlint scrape.txt
package main

import (
	"fmt"
	"io"
	"os"

	"flextm/internal/observatory"
)

func main() {
	var in io.Reader = os.Stdin
	name := "<stdin>"
	if len(os.Args) > 1 {
		f, err := os.Open(os.Args[1])
		if err != nil {
			fmt.Fprintln(os.Stderr, "omlint:", err)
			os.Exit(2)
		}
		defer f.Close()
		in, name = f, os.Args[1]
	}
	exp, err := observatory.ParseExposition(in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "omlint: %s: %v\n", name, err)
		os.Exit(1)
	}
	samples := 0
	for _, fam := range exp.Families {
		samples += len(fam.Samples)
	}
	fmt.Printf("omlint: %s: ok (%d families, %d samples)\n", name, len(exp.Families), samples)
}
