//go:build race

package vavg

func init() { raceEnabled = true }
