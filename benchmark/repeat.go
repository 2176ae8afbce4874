package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runMany runs workloads in child processes, one process per run the way
// the driver does it (so peak_rss_mb is a run's own), and with repeat > 0
// prints each metric's median, quartiles and spread — the distance between
// the quartiles as a share of the median — against its bound. It returns
// the process's exit code: non-zero when a run failed or an end-to-end
// metric's spread exceeds its bound.
func runMany(workload string, seed uint64, seconds float64, trace int, smoke bool, repeat int, history bool) int {
	workloads := []string{workload}
	if workload == "all" {
		workloads = workloadNames
	}
	runs := repeat
	if runs < 1 {
		runs = 1
	}
	defs := endToEnd
	if trace != 0 {
		defs = perLayer
	}
	code := 0
	for _, w := range workloads {
		values := make(map[string][]float64)
		for i := 0; i < runs; i++ {
			args := []string{"-workload", w, "-seed", strconv.FormatUint(seed+uint64(i), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace)}
			if smoke {
				args = append(args, "-smoke")
			}
			if history {
				args = append(args, "-append-history")
			}
			res, err := runChild(args, repeat == 0)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %v\n", w, seed+uint64(i), err)
				code = 1
				continue
			}
			if !res.Correct || res.Failed > 0 {
				fmt.Printf("%s seed %d: correct=%v failed=%d of %d\n", w, seed+uint64(i), res.Correct, res.Failed, res.Attempted)
				code = 1
			}
			for name, v := range res.Metrics {
				values[name] = append(values[name], v.Value)
			}
		}
		if repeat == 0 {
			continue
		}
		fmt.Printf("\n%s: %d runs, seeds %d..%d, %g s each, trace %d\n", w, runs, seed, seed+uint64(runs)-1, seconds, trace)
		fmt.Printf("%-32s %-6s %14s %14s %14s %8s %-17s %s\n", "metric", "unit", "median", "q1", "q3", "spread", "bound", "values")
		for _, d := range defs {
			q1, q2, q3 := quartiles(values[d.name])
			spread := math.Abs(q3-q1) / math.Abs(q2)
			if q2 == 0 {
				spread = 0
			}
			verdict := ""
			if d.bound > 0 {
				verdict = fmt.Sprintf("%6.1f%%", 100*d.bound)
				if d.name != "setup_s" && spread > d.bound {
					verdict += "  EXCEEDED"
					code = 1
				}
			}
			fmt.Printf("%-32s %-6s %14.6g %14.6g %14.6g %7.2f%% %-17s %.5g\n", d.name, d.unit, q2, q1, q3, 100*spread, verdict, values[d.name])
		}
	}
	return code
}

// runChild re-executes this binary for one run and parses the result line.
// With echo set the child's report is passed through.
func runChild(args []string, echo bool) (*result, error) {
	cmd := exec.Command(os.Args[0], args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		// Without echo only the lines that say what went wrong pass.
		if last != "" && (echo || strings.HasPrefix(last, "VIOLATION:") || strings.HasPrefix(last, "INVALID:")) {
			fmt.Println(last)
		}
		last = sc.Text()
	}
	if echo && last != "" {
		fmt.Println(last)
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &res, nil
}
