"""
Access latency as the user count grows
======================================

The experiment behind the first headline figure: sweep the user population
under both policies and watch the cloud-only baseline saturate while the
fog-edge deployment stays flat. This demo uses a shortened horizon and a
reduced sweep so it finishes in a few seconds; drop the overrides to
reproduce the full default experiment.
"""

from metafog import latency_reduction, plot_series, sweep

config = {
    "experiment": {
        "horizon_ms": 120_000.0,
        "warmup_ms": 20_000.0,
        "user_count_sweep": [100, 300, 500, 700, 900],
    },
}

results = sweep(config, "user_count", replications=1, parallel=True)

print(f"{'users':>7} {'cloud ms':>12} {'fogedge ms':>12} {'reduction':>10}")
for value, cloud_ms, fog_ms in plot_series(results, "user_count"):
    print(f"{value:>7} {cloud_ms:>12.3f} {fog_ms:>12.3f} "
          f"{latency_reduction(cloud_ms, fog_ms):>9.1%}")

print("\nThe cloud curve bends upward once its compute queue saturates;")
print("fog-edge latency barely moves because navigation and collision work")
print("stays one hop from the device.")
