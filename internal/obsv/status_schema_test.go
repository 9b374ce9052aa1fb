package obsv

import (
	"encoding/json"
	"testing"
)

// TestSplitStatusGoldenJSON pins the /debug/split wire schema. The
// MinCutStatus/FrontPointStatus JSON is an operator-facing contract
// (documented in OBSERVABILITY.md); renaming or retyping a field must
// show up as a diff here, not as a silently broken dashboard.
func TestSplitStatusGoldenJSON(t *testing.T) {
	doc := EndpointStatus{
		Role: "subscriber",
		Name: "client-1",
		Channels: []ChannelStatus{{
			ID:          "client-1",
			Channel:     "images",
			Handler:     "push",
			PlanVersion: 4,
			Split:       []int32{1, 3},
			Metrics:     map[string]uint64{"events_in_total": 120},
			PSEs: []PSEStatus{{
				ID: 0, From: 0, To: 1, InSplit: false, Profiled: true,
				Count: 120, Bytes: 40068, ModWork: 0, DemodWork: 52000, Prob: 1,
			}},
			LastMinCut: &MinCutStatus{
				Version:    4,
				Cut:        []int32{1, 3},
				CutValue:   25675,
				Capacities: map[int32]int64{0: 40068, 1: 25600, 3: 75},
				Profiled:   3,
				Policy:     "cost-first",
				Front: []FrontPointStatus{
					{
						Cut: []int32{1, 3}, Bytes: 25675, LatencyMS: 70.58,
						SenderWork: 45000, ReceiverWork: 5000, FailureRate: 0,
						CutValue: 25675, Balanced: true, Chosen: true,
					},
					{
						Cut: []int32{0}, Bytes: 40068, LatencyMS: 24.83,
						SenderWork: 0, ReceiverWork: 52000, FailureRate: 0,
						CutValue: 40068,
					},
				},
				Chosen: 0,
				Env: &EnvStatus{
					SenderSpeed:   1000,
					ReceiverSpeed: 1000,
					Bandwidth:     320,
					LatencyMS:     12.5,
				},
				Suppressed:      true,
				PendingCut:      []int32{0},
				PendingStreak:   2,
				FlipsSuppressed: 5,
				Complete:        true,
			},
			Link: &LinkStatus{
				RTTMS:               25,
				BandwidthBytesPerMS: 320,
				RTTSamples:          14,
				BandwidthSamples:    13,
				Warm:                true,
			},
		}},
	}

	const golden = `{
  "role": "subscriber",
  "name": "client-1",
  "channels": [
    {
      "id": "client-1",
      "channel": "images",
      "handler": "push",
      "plan_version": 4,
      "split": [
        1,
        3
      ],
      "queue_len": 0,
      "metrics": {
        "events_in_total": 120
      },
      "pses": [
        {
          "id": 0,
          "from": 0,
          "to": 1,
          "in_split": false,
          "profiled": true,
          "count": 120,
          "bytes": 40068,
          "mod_work": 0,
          "demod_work": 52000,
          "prob": 1,
          "failures": 0
        }
      ],
      "last_min_cut": {
        "version": 4,
        "cut": [
          1,
          3
        ],
        "cut_value": 25675,
        "capacities": {
          "0": 40068,
          "1": 25600,
          "3": 75
        },
        "profiled": 3,
        "policy": "cost-first",
        "front": [
          {
            "cut": [
              1,
              3
            ],
            "bytes": 25675,
            "latency_ms": 70.58,
            "sender_work": 45000,
            "receiver_work": 5000,
            "failure_rate": 0,
            "cut_value": 25675,
            "balanced": true,
            "chosen": true
          },
          {
            "cut": [
              0
            ],
            "bytes": 40068,
            "latency_ms": 24.83,
            "sender_work": 0,
            "receiver_work": 52000,
            "failure_rate": 0,
            "cut_value": 40068
          }
        ],
        "env": {
          "sender_speed": 1000,
          "receiver_speed": 1000,
          "bandwidth": 320,
          "latency_ms": 12.5
        },
        "suppressed": true,
        "pending_cut": [
          0
        ],
        "pending_streak": 2,
        "flips_suppressed": 5,
        "complete": true
      },
      "link": {
        "rtt_ms": 25,
        "bandwidth_bytes_per_ms": 320,
        "rtt_samples": 14,
        "bandwidth_samples": 13,
        "warm": true
      }
    }
  ]
}`

	got, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != golden {
		t.Errorf("/debug/split schema drifted.\ngot:\n%s\nwant:\n%s", got, golden)
	}

	// The document must round-trip: an operator tool that decodes and
	// re-encodes the status must not lose the front.
	var back EndpointStatus
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	mc := back.Channels[0].LastMinCut
	if mc == nil || len(mc.Front) != 2 || !mc.Front[0].Balanced || !mc.Front[0].Chosen {
		t.Errorf("round trip lost front detail: %+v", mc)
	}
	if mc.Policy != "cost-first" {
		t.Errorf("round trip policy = %q", mc.Policy)
	}
	if mc.Env == nil || mc.Env.Bandwidth != 320 || !mc.Suppressed || mc.PendingStreak != 2 || mc.FlipsSuppressed != 5 || !mc.Complete {
		t.Errorf("round trip lost hysteresis detail: %+v", mc)
	}
	if l := back.Channels[0].Link; l == nil || l.RTTMS != 25 || l.BandwidthSamples != 13 || !l.Warm {
		t.Errorf("round trip lost link detail: %+v", l)
	}
}
