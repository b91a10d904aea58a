// Package probe discovers the computing and networking resources the cloud
// environment has provisioned — ADAMANT's first step. On Linux the real
// source reads /proc/cpuinfo and /proc/meminfo and the NIC speed from
// /sys/class/net/*/speed (the portable equivalent of the paper's ethtool
// query). A static source injects synthetic environments for simulations
// and tests.
package probe

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"adamant/internal/netem"
)

// Info describes a probed environment.
type Info struct {
	CPUModel string
	CPUMHz   float64
	Cores    int
	MemMB    int
	LinkMbps int
}

// String implements fmt.Stringer.
func (i Info) String() string {
	return fmt.Sprintf("cpu=%q %.0fMHz x%d, mem=%dMB, link=%dMbps",
		i.CPUModel, i.CPUMHz, i.Cores, i.MemMB, i.LinkMbps)
}

// Source produces environment information.
type Source interface {
	Probe() (Info, error)
}

// StaticSource returns fixed Info (for simulations and tests).
type StaticSource struct {
	Info Info
}

var _ Source = StaticSource{}

// Probe implements Source.
func (s StaticSource) Probe() (Info, error) { return s.Info, nil }

// ForMachine builds a StaticSource matching a netem machine profile on the
// given emulated LAN bandwidth.
func ForMachine(m netem.Machine, bw netem.Bandwidth) StaticSource {
	return StaticSource{Info: Info{
		CPUModel: m.Name,
		CPUMHz:   float64(m.MHz),
		Cores:    1,
		MemMB:    m.RAMMB,
		LinkMbps: int(int64(bw) / 1_000_000),
	}}
}

// RealSource probes the local host. Zero-value fields default to the
// standard Linux paths.
type RealSource struct {
	CPUInfoPath string // default /proc/cpuinfo
	MemInfoPath string // default /proc/meminfo
	NetClassDir string // default /sys/class/net
}

var _ Source = RealSource{}

func (s RealSource) paths() (cpu, mem, net string) {
	cpu, mem, net = s.CPUInfoPath, s.MemInfoPath, s.NetClassDir
	if cpu == "" {
		cpu = "/proc/cpuinfo"
	}
	if mem == "" {
		mem = "/proc/meminfo"
	}
	if net == "" {
		net = "/sys/class/net"
	}
	return cpu, mem, net
}

// Probe implements Source.
func (s RealSource) Probe() (Info, error) {
	cpuPath, memPath, netDir := s.paths()
	var info Info
	cpuRaw, err := os.ReadFile(cpuPath)
	if err != nil {
		return info, fmt.Errorf("probe: reading cpuinfo: %w", err)
	}
	info.CPUModel, info.CPUMHz, info.Cores = parseCPUInfo(string(cpuRaw))
	if info.Cores == 0 {
		return info, errors.New("probe: no processors found in cpuinfo")
	}
	if memRaw, err := os.ReadFile(memPath); err == nil {
		info.MemMB = parseMemTotalMB(string(memRaw))
	}
	info.LinkMbps = probeLinkMbps(netDir)
	return info, nil
}

func parseCPUInfo(raw string) (model string, mhz float64, cores int) {
	for _, line := range strings.Split(raw, "\n") {
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		switch key {
		case "processor":
			cores++
		case "model name":
			if model == "" {
				model = val
			}
		case "cpu MHz":
			if mhz == 0 {
				if v, err := strconv.ParseFloat(val, 64); err == nil {
					mhz = v
				}
			}
		}
	}
	return model, mhz, cores
}

func parseMemTotalMB(raw string) int {
	for _, line := range strings.Split(raw, "\n") {
		if !strings.HasPrefix(line, "MemTotal:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			if kb, err := strconv.Atoi(fields[1]); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// probeLinkMbps returns the fastest up NIC speed found, or 0 if none is
// reported (common in VMs and containers).
func probeLinkMbps(netDir string) int {
	entries, err := os.ReadDir(netDir)
	if err != nil {
		return 0
	}
	best := 0
	for _, e := range entries {
		if e.Name() == "lo" {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(netDir, e.Name(), "speed"))
		if err != nil {
			continue
		}
		v, err := strconv.Atoi(strings.TrimSpace(string(raw)))
		if err != nil || v <= 0 {
			continue
		}
		if v > best {
			best = v
		}
	}
	return best
}
