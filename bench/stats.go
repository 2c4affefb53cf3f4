package bench

import "sort"

// Summary is a metric's distribution over a run's reps.
type Summary struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

// IQRShare is the interquartile range as a share of the median.
func (s Summary) IQRShare() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// summarize computes the median and quartiles the way Python's
// statistics.quantiles(xs, n=4) does (its default "exclusive" method),
// so a spread computed from a results file matches one computed there.
func summarize(unit string, xs []float64) Summary {
	s := Summary{Unit: unit, N: len(xs), Samples: xs}
	if len(xs) == 0 {
		return s
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d) == 1 {
		s.Q1, s.Median, s.Q3 = d[0], d[0], d[0]
		return s
	}
	q := func(i int) float64 {
		m := len(d) + 1
		j := min(max(i*m/4, 1), len(d)-1)
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	s.Q1, s.Median, s.Q3 = q(1), q(2), q(3)
	return s
}
