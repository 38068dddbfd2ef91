//go:build !unix

package main

import "time"

// processCPU is unavailable off unix; CPU metrics read 0 there.
func processCPU() time.Duration { return 0 }

// peakRSSMB is unavailable off unix; the RSS metric reads 0 there.
func peakRSSMB() float64 { return 0 }
