package bench

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"vavg"
)

// childEnv marks a process the parent started to serve one rep.
const childEnv = "VAVGPERF_CHILD"

// IsChild reports whether this process is a rep started by the parent;
// the binary's main (and TestMain) then call ChildMain instead.
func IsChild() bool { return os.Getenv(childEnv) != "" }

// job is the rep description the parent writes to a child's stdin.
type job struct {
	Workload Workload `json:"workload"`
	Seed     int64    `json:"seed"`
	// File is the CSR file a File workload loads.
	File  string `json:"file,omitempty"`
	Trace bool   `json:"trace"`
	// Build writes and audits File instead of running a rep.
	Build bool `json:"build,omitempty"`
}

// Counters are the deterministic outputs of a rep. Equal inputs must
// reproduce them exactly, traced or not.
type Counters struct {
	Rounds       int64 `json:"rounds"`
	VertexRounds int64 `json:"vertexRounds"`
	Messages     int64 `json:"messages"`
	// Output is the color count or the MIS size (-1 for a partition),
	// summed over a sweep's points.
	Output int64 `json:"output"`
	// Digest is FNV-1a over ActivePerRound, or over a sweep's points.
	Digest uint64 `json:"digest"`
}

// repResult is the one JSON line a child prints.
type repResult struct {
	SetupS     float64  `json:"setupS"`
	RunS       float64  `json:"runS"`
	PeakRSSMiB float64  `json:"peakRSSMiB"`
	Counters   Counters `json:"counters"`
	// Shards is the step backend's shard count per engine run; untraced
	// sweeps cannot see it.
	Shards []int `json:"shards"`
	// Layers and Spans come from traced reps only.
	Layers map[string]float64 `json:"layers,omitempty"`
	Spans  []Span             `json:"spans,omitempty"`
	Err    string             `json:"err,omitempty"`
}

// ChildMain serves one rep: it reads a job from stdin, runs it, prints
// its repResult and returns the process exit code.
func ChildMain() int {
	var j job
	res, err := repResult{}, json.NewDecoder(os.Stdin).Decode(&j)
	if err == nil {
		switch {
		case j.Build:
			start := time.Now()
			err = writeInput(j.Workload, j.Seed, j.File)
			res.SetupS = time.Since(start).Seconds()
		case j.Trace:
			res, err = runTraced(j)
		default:
			res, err = runPlain(j)
		}
	}
	if err == nil {
		res.PeakRSSMiB, err = peakRSSMiB()
	}
	code := 0
	if err != nil {
		res.Err = err.Error()
		code = 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "vavgperf child:", err)
		return 1
	}
	return code
}

// params are the run parameters of every workload, spelled out so the
// traced path can hand the engine exactly what Algorithm.Run would.
func (w Workload) params(seed int64) vavg.Params {
	return vavg.Params{Arboricity: w.A, Eps: 2, K: 2, Seed: seed, MaxRounds: 1 << 21, Relabel: w.Relabel}
}

// sweepSeeds are the seeds a sweep takes medians over.
func sweepSeeds(seed int64) []int64 { return []int64{seed, seed + 1, seed + 2} }

// input obtains a single-run workload's graph.
func input(w Workload, seed int64, file string) (*vavg.Graph, error) {
	if w.File {
		return vavg.LoadGraph(file)
	}
	return vavg.MakeFamily(w.Family, w.N, w.A, seed)
}

// sweepGen is a sweep workload's cached generator. It adds the time spent
// generating to *spent and keeps the first generator error in *genErr.
func sweepGen(w Workload, seed int64, spent *time.Duration, genErr *error) func(int) *vavg.Graph {
	return vavg.CachedGen(w.Family, func(n int) *vavg.Graph {
		start := time.Now()
		g, err := vavg.MakeFamily(w.Family, n, w.A, seed)
		*spent += time.Since(start)
		if err != nil && *genErr == nil {
			*genErr = err
		}
		return g
	}, "a", w.A, "seed", seed)
}

// runPlain is the untraced rep: only vavg's public entry points, with
// validation on.
func runPlain(j job) (repResult, error) {
	w := j.Workload
	alg, err := vavg.ByName(w.Alg)
	if err != nil {
		return repResult{}, err
	}
	p := w.params(j.Seed)
	if w.Sizes != nil {
		var setup time.Duration
		var genErr error
		p.SweepWorkers = runtime.NumCPU()
		start := time.Now()
		sr, err := vavg.Sweep(alg, sweepGen(w, j.Seed, &setup, &genErr), w.Sizes, sweepSeeds(j.Seed), p)
		total := time.Since(start)
		if err = errors.Join(genErr, err); err != nil {
			return repResult{}, err
		}
		return repResult{SetupS: setup.Seconds(), RunS: (total - setup).Seconds(), Counters: sweepCounters(sr.Points), Shards: []int{}}, nil
	}
	start := time.Now()
	g, err := input(w, j.Seed, j.File)
	if err != nil {
		return repResult{}, err
	}
	setup := time.Since(start)
	start = time.Now()
	rep, err := alg.Run(g, p)
	run := time.Since(start)
	if err != nil {
		return repResult{}, err
	}
	return repResult{SetupS: setup.Seconds(), RunS: run.Seconds(), Counters: reportCounters(rep), Shards: []int{rep.StepShards}}, nil
}

func reportCounters(rep vavg.Report) Counters {
	return Counters{
		Rounds:       int64(rep.WorstCase),
		VertexRounds: rep.RoundSum,
		Messages:     rep.Messages,
		Output:       int64(max(rep.Colors, rep.Size)),
		Digest:       digestInts(rep.ActivePerRound),
	}
}

func sweepCounters(points []vavg.SweepPoint) Counters {
	var c Counters
	for _, pt := range points {
		c.Rounds += int64(pt.WorstCase)
		c.VertexRounds += int64(math.Round(pt.VertexAvg * float64(pt.N)))
		c.Messages += pt.Messages
		c.Output += int64(max(pt.Colors, pt.Size))
	}
	h := fnv.New64a()
	// Encoding plain structs of numbers cannot fail.
	_ = json.NewEncoder(h).Encode(points)
	c.Digest = h.Sum64()
	return c
}

func digestInts(xs []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
	return h.Sum64()
}

// peakRSSMiB reads the process's resident-set high-water mark, mapped
// file pages included.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	return parseVmHWM(f)
}

func parseVmHWM(r io.Reader) (float64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return 0, errors.New("peak RSS: no VmHWM line")
}
