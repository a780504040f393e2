package frontend

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/kernel"
	"repro/internal/metrics"
)

// TestGoldenFaulted pins the fleet-bursty builtin (2 devices, CoDel at
// 0.8x with bursty load, so the controller trips and re-arms) run on
// 2 host workers: its rendered report, event count and metrics
// registry under the chaos profile, and its report and event count
// under tenant-storm (which chaos leaves out: arrival bursts). The
// strings were recorded before the generator→server hand-off moved
// into workload.Pipe; any change to admission, fairness-class dequeue
// order, the CoDel controller or completion accounting shows here.
func TestGoldenFaulted(t *testing.T) {
	for _, tc := range []struct {
		profile string
		metrics bool
		want    string
	}{
		{"chaos", true, goldenChaos},
		{"tenant-storm", false, goldenStorm},
	} {
		fl, err := resolve("fleet-bursty")
		if err != nil {
			t.Fatal(err)
		}
		plan, err := faults.NewPlan(tc.profile, 1)
		if err != nil {
			t.Fatal(err)
		}
		env := kernel.Env{Faults: plan}
		if tc.metrics {
			env.Metrics = metrics.NewRegistry()
		}
		res, events, err := Run(1, fl, core.RunOptions{Env: env, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%s\nevents %d\n", ReportTable(fl, res), events)
		if tc.metrics {
			got += env.Metrics.Render()
		}
		if got != tc.want {
			t.Errorf("%s: run differs from the recorded one:\n%s\nwant:\n%s", tc.profile, got, tc.want)
		}
	}
}

const goldenChaos = `== frontend: fleet-bursty (kvell over bypassd, codel admission, pool 8, 20000 users) ==
device  offered  admitted  shed_%  goodput_kops  p50_us  p99_us  p999_us  slo_met_%  users  peak_backlog  bursts
------  -------  --------  ------  ------------  ------  ------  -------  ---------  -----  ------------  ------
dev0    15000    15000     21.4    397.3         4.99    143.4   184.3    100.0      8425   501           0     
dev1    15000    15000     31.9    400.0         8.70    225.3   344.1    98.4       7737   664           0     
fleet   30000    30000     26.7    741.3         5.25    184.3   311.3    99.3       16162  664           0     

events 238976
== metrics ==
device_bytes_total{dev="optane-p5800x",dir="read"} 18147840
device_bytes_total{dev="optane-p5800x",dir="write"} 3203072
device_bytes_total{dev="optane-p5800x.1",dir="read"} 33645568
device_bytes_total{dev="optane-p5800x.1",dir="write"} 3203072
device_errors_total{dev="optane-p5800x"} 226
device_errors_total{dev="optane-p5800x.1"} 144
device_ops_total{dev="optane-p5800x",op="flush"} 4
device_ops_total{dev="optane-p5800x",op="read"} 11800
device_ops_total{dev="optane-p5800x",op="write"} 16
device_ops_total{dev="optane-p5800x.1",op="flush"} 4
device_ops_total{dev="optane-p5800x.1",op="read"} 10220
device_ops_total{dev="optane-p5800x.1",op="write"} 16
device_queues{dev="optane-p5800x"} 5
device_queues{dev="optane-p5800x.1"} 5
ext4_commits_total 2
frontend_completed_total{dev="0"} 11791
frontend_completed_total{dev="1"} 10211
frontend_requests_total{dev="0"} 15000
frontend_requests_total{dev="1"} 15000
frontend_shed_total{dev="0"} 3209
frontend_shed_total{dev="1"} 4789
frontend_sojourn_ns{dev="0"} count=11791 mean=13444 p50=4992 p99=143360 max=218712
frontend_sojourn_ns{dev="1"} count=10211 mean=24635 p50=8704 p99=225280 max=409557
iommu_iotlb_total{event="hit"} 0
iommu_iotlb_total{event="miss"} 0
iommu_pwc_total{event="hit"} 14759
iommu_pwc_total{event="miss"} 2429
iommu_translations_total{result="denied"} 0
iommu_translations_total{result="fault"} 177
iommu_walks_total 21589
kernel_block_retries_total 39
userlib_degrades_total 4
userlib_injected_faults_total 541
userlib_ops_total{path="direct"} 17013
userlib_ops_total{path="kernel"} 4989
userlib_refmaps_total 177
userlib_retries_total 714
`

const goldenStorm = `== frontend: fleet-bursty (kvell over bypassd, codel admission, pool 8, 20000 users) ==
device  offered  admitted  shed_%  goodput_kops  p50_us  p99_us  p999_us  slo_met_%  users  peak_backlog  bursts
------  -------  --------  ------  ------------  ------  ------  -------  ---------  -----  ------------  ------
dev0    15000    15000     56.9    555.3         18.4    167.9   200.7    99.9       4789   657           99    
dev1    15000    15000     58.7    572.7         18.9    172.0   213.0    99.7       4837   1070          134   
fleet   30000    30000     57.8    1088          18.4    172.0   204.8    99.8       9626   1070          233   

events 127930
`
