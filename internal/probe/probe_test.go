package probe

import (
	"os"
	"path/filepath"
	"testing"

	"adamant/internal/netem"
)

const sampleCPUInfo = `processor	: 0
vendor_id	: GenuineIntel
model name	: Intel(R) Xeon(R) CPU @ 2.80GHz
cpu MHz		: 2794.748
cache size	: 512 KB

processor	: 1
model name	: Intel(R) Xeon(R) CPU @ 2.80GHz
cpu MHz		: 2794.748
`

const sampleMemInfo = `MemTotal:        2097152 kB
MemFree:          524288 kB
`

func writeFakeSys(t *testing.T) RealSource {
	t.Helper()
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpuinfo")
	mem := filepath.Join(dir, "meminfo")
	netDir := filepath.Join(dir, "net")
	if err := os.WriteFile(cpu, []byte(sampleCPUInfo), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mem, []byte(sampleMemInfo), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, nic := range []struct {
		name, speed string
	}{{"lo", "0"}, {"eth0", "1000"}, {"eth1", "100"}, {"down0", "-1"}} {
		d := filepath.Join(netDir, nic.name)
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(d, "speed"), []byte(nic.speed+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return RealSource{CPUInfoPath: cpu, MemInfoPath: mem, NetClassDir: netDir}
}

func TestRealSourceProbe(t *testing.T) {
	src := writeFakeSys(t)
	info, err := src.Probe()
	if err != nil {
		t.Fatal(err)
	}
	if info.Cores != 2 {
		t.Errorf("Cores = %d, want 2", info.Cores)
	}
	if info.CPUMHz < 2794 || info.CPUMHz > 2795 {
		t.Errorf("CPUMHz = %v", info.CPUMHz)
	}
	if info.CPUModel == "" {
		t.Error("empty CPU model")
	}
	if info.MemMB != 2048 {
		t.Errorf("MemMB = %d, want 2048", info.MemMB)
	}
	if info.LinkMbps != 1000 {
		t.Errorf("LinkMbps = %d, want 1000 (fastest up NIC, lo excluded)", info.LinkMbps)
	}
	if info.String() == "" {
		t.Error("empty String()")
	}
}

func TestRealSourceErrors(t *testing.T) {
	src := RealSource{CPUInfoPath: "/nonexistent/cpuinfo"}
	if _, err := src.Probe(); err == nil {
		t.Error("missing cpuinfo should error")
	}
	dir := t.TempDir()
	empty := filepath.Join(dir, "cpuinfo")
	if err := os.WriteFile(empty, []byte("garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src = RealSource{CPUInfoPath: empty, MemInfoPath: "/nonexistent", NetClassDir: "/nonexistent"}
	if _, err := src.Probe(); err == nil {
		t.Error("cpuinfo without processors should error")
	}
}

func TestRealHostProbe(t *testing.T) {
	// On any Linux host the default paths should work.
	if _, err := os.Stat("/proc/cpuinfo"); err != nil {
		t.Skip("no /proc/cpuinfo on this platform")
	}
	info, err := RealSource{}.Probe()
	if err != nil {
		t.Fatal(err)
	}
	if info.Cores < 1 {
		t.Errorf("Cores = %d", info.Cores)
	}
}

func TestStaticAndForMachine(t *testing.T) {
	src := ForMachine(netem.PC850, netem.Mbps100)
	info, err := src.Probe()
	if err != nil {
		t.Fatal(err)
	}
	if info.CPUMHz != 850 || info.LinkMbps != 100 || info.MemMB != 256 {
		t.Errorf("info = %+v", info)
	}
}
