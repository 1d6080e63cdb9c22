// Command ipmparse reimplements IPM's ipm_parse utility: it reads an XML
// profiling log produced by a monitored run (e.g. ipmrun -xml) and emits
// one of several report formats.
//
// Usage:
//
//	ipmparse -format banner|full|html|cube|advise [-o FILE] LOG.xml
//
// The advise format runs the performance advisor (internal/advisor) on
// the profile and prints guidance.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ipmgo/internal/advisor"
	"ipmgo/internal/ipm"
	"ipmgo/internal/ipmparse"
)

func main() {
	format := flag.String("format", "banner", "output format: banner, full, html, cube, advise, regions")
	out := flag.String("o", "", "output file (default stdout)")
	strict := flag.Bool("strict", false, "reject instead of salvaging: fail on any XML error, a root other than ipm_log, or anything the default mode would warn about (a log declaring more tasks than it holds still loads)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ipmparse [-format banner|full|html|cube] [-strict] [-o FILE] LOG.xml")
		os.Exit(2)
	}

	in, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "ipmparse:", err)
		os.Exit(1)
	}
	defer in.Close()

	// Tolerant by default: the log of a job whose ranks died mid-write is
	// exactly the log most worth parsing. -strict restores hard failure.
	var jp *ipm.JobProfile
	if *strict {
		jp, err = ipmparse.Load(in)
	} else {
		var rep *ipm.ParseReport
		jp, rep, err = ipmparse.LoadTolerant(in)
		if rep != nil {
			for _, w := range rep.Warnings {
				fmt.Fprintln(os.Stderr, "ipmparse: warning:", w)
			}
			if rep.Truncated {
				fmt.Fprintf(os.Stderr, "ipmparse: warning: log truncated; recovered %d of %d task(s)\n",
					rep.TasksRecovered, rep.TasksDeclared)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ipmparse:", err)
		os.Exit(1)
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ipmparse:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}

	switch *format {
	case "banner":
		err = ipmparse.WriteBanner(w, jp, false)
	case "full":
		err = ipmparse.WriteBanner(w, jp, true)
	case "html":
		err = ipmparse.WriteHTML(w, jp)
	case "cube":
		err = ipmparse.WriteCUBE(w, jp)
	case "advise":
		report := advisor.Report(advisor.Analyze(jp, advisor.Thresholds{})) + "\n" +
			advisor.FormatProjections(advisor.Projections(jp))
		_, err = io.WriteString(w, report)
	case "regions":
		err = ipmparse.WriteRegions(w, jp)
	default:
		fmt.Fprintf(os.Stderr, "ipmparse: unknown format %q\n", *format)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ipmparse:", err)
		os.Exit(1)
	}
}
