//go:build !race

package dds_test

const raceEnabled = false
