package tenants

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/kernel"
	"repro/internal/metrics"
)

// TestGoldenFaulted pins the slo-load-bypassd builtin striped over 2
// devices and run on 2 host workers: its rendered report, event count
// and metrics registry under the chaos profile, and its report and
// event count under tenant-storm (which chaos leaves out: arrival
// bursts). The strings were recorded before the generator→server
// hand-off moved into workload.Pipe; any change to arrival stamping,
// burst handling, dequeue order or completion accounting shows here.
func TestGoldenFaulted(t *testing.T) {
	for _, tc := range []struct {
		profile string
		metrics bool
		want    string
	}{
		{"chaos", true, goldenChaos},
		{"tenant-storm", false, goldenStorm},
	} {
		sc := SLOLoad(core.EngineBypassD, 4, 800_000, 2000)
		sc.Devices = 2
		plan, err := faults.NewPlan(tc.profile, 1)
		if err != nil {
			t.Fatal(err)
		}
		env := kernel.Env{Faults: plan}
		if tc.metrics {
			env.Metrics = metrics.NewRegistry()
		}
		res, events, err := Run(1, sc, core.RunOptions{Env: env, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%s\nevents %d\n", ReportTable(sc, res), events)
		if tc.metrics {
			got += env.Metrics.Render()
		}
		if got != tc.want {
			t.Errorf("%s: run differs from the recorded one:\n%s\nwant:\n%s", tc.profile, got, tc.want)
		}
	}
}

const goldenChaos = `== tenants: slo-load-bypassd (arbiter rr) ==
tenant  engine   offered_kiops  achieved_kiops  MB/s   p50_us  p99_us  p999_us  slo_us  compliance_%  peak_backlog  retries  fallbacks
------  -------  -------------  --------------  -----  ------  ------  -------  ------  ------------  ------------  -------  ---------
t0      bypassd  200.0          195.0           798.6  5.12    25.1    25.1     25.0    98.2          1             80       0        
t1      bypassd  200.0          204.5           837.7  5.12    25.1    25.1     25.0    97.8          1             95       0        
t2      bypassd  200.0          199.1           815.7  5.12    25.1    33.8     25.0    98.0          1             72       0        
t3      bypassd  200.0          202.7           830.1  5.12    25.1    29.7     25.0    97.7          1             92       0        

events 66064
== metrics ==
device_bytes_total{dev="optane-p5800x",dir="read"} 16400384
device_bytes_total{dev="optane-p5800x",dir="write"} 49152
device_bytes_total{dev="optane-p5800x.1",dir="read"} 16400384
device_bytes_total{dev="optane-p5800x.1",dir="write"} 49152
device_errors_total{dev="optane-p5800x"} 75
device_errors_total{dev="optane-p5800x.1"} 91
device_ops_total{dev="optane-p5800x",op="flush"} 3
device_ops_total{dev="optane-p5800x",op="read"} 4004
device_ops_total{dev="optane-p5800x",op="write"} 14
device_ops_total{dev="optane-p5800x.1",op="flush"} 3
device_ops_total{dev="optane-p5800x.1",op="read"} 4004
device_ops_total{dev="optane-p5800x.1",op="write"} 14
device_queues{dev="optane-p5800x"} 17
device_queues{dev="optane-p5800x.1"} 17
ext4_commits_total 2
iommu_iotlb_total{event="hit"} 0
iommu_iotlb_total{event="miss"} 0
iommu_pwc_total{event="hit"} 3315
iommu_pwc_total{event="miss"} 4764
iommu_translations_total{result="denied"} 0
iommu_translations_total{result="fault"} 86
iommu_walks_total 8079
kernel_block_retries_total 1
tenant_ops_total{tenant="t0"} 2000
tenant_ops_total{tenant="t1"} 2000
tenant_ops_total{tenant="t2"} 2000
tenant_ops_total{tenant="t3"} 2000
tenant_slo_miss_total{tenant="t0"} 35
tenant_slo_miss_total{tenant="t1"} 43
tenant_slo_miss_total{tenant="t2"} 39
tenant_slo_miss_total{tenant="t3"} 46
tenant_sojourn_ns{tenant="t0"} count=2000 mean=5722 p50=5120 p99=25088 max=25162
tenant_sojourn_ns{tenant="t1"} count=2000 mean=5840 p50=5120 p99=25088 max=30162
tenant_sojourn_ns{tenant="t2"} count=2000 mean=5755 p50=5120 p99=25088 max=34732
tenant_sojourn_ns{tenant="t3"} count=2000 mean=5873 p50=5120 p99=25088 max=30162
userlib_degrades_total 0
userlib_injected_faults_total 253
userlib_ops_total{path="direct"} 8000
userlib_ops_total{path="kernel"} 0
userlib_refmaps_total 86
userlib_retries_total 339
`

const goldenStorm = `== tenants: slo-load-bypassd (arbiter rr) ==
tenant  engine   offered_kiops  achieved_kiops  MB/s   p50_us  p99_us  p999_us  slo_us  compliance_%  peak_backlog  retries  fallbacks
------  -------  -------------  --------------  -----  ------  ------  -------  ------  ------------  ------------  -------  ---------
t0      bypassd  200.0          252.4           1034   5.12    33.8    50.2     25.0    93.5          32            106      0        
t1      bypassd  200.0          272.6           1116   5.12    44.0    58.4     25.0    92.4          57            95       0        
t2      bypassd  200.0          227.2           930.7  5.12    32.3    46.1     25.0    95.9          32            100      0        
t3      bypassd  200.0          240.4           984.6  5.12    32.8    36.9     25.0    95.3          32            111      0        

events 61526
`
