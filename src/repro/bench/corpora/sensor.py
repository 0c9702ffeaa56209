"""Time-series/sensor corpus: window-function-dominant queries under an
"edge" engine profile.

The generator emits per-device reading streams (strictly increasing,
unique ``r_tick`` per device — the total order every OVER clause needs for
deterministic answers) with random-walk temperatures, decaying battery
levels and occasional NULL humidity samples. The query family is what Cao
et al.'s window-function optimization work identifies as the hard case for
sort/partition reuse: frames, PARTITION BY device, rank/lag/lead, moving
aggregates, and windows feeding reaggregation blocks.

``EDGE_PROFILE`` is the resource-constrained configuration the family is
benchmarked under: a tight memory budget that forces the PARTITION
operator to spill, small morsels, and few partitions — an
embedded/edge-device analytics setting rather than a warehouse one.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from ...storage.table import Catalog

SITES = ["plant-a", "plant-b", "rooftop"]
MODELS = ["tmp36", "dht22", "bme280"]

SENSOR_SCHEMAS = {
    "devices": {
        "v_device": "int64",
        "v_site": "string",
        "v_model": "string",
    },
    "readings": {
        "r_device": "int64",
        "r_tick": "int64",
        "r_temp": "float64",
        "r_humidity": "float64",
        "r_battery": "float64",
        "r_signal": "int64",
    },
}

#: Edge-device engine profile: ~64 KiB loaded-buffer budget (spill-heavy at
#: every scale), 2k-row morsels, 8 partitions. Passed as EngineConfig
#: keyword overrides by :meth:`Corpus.config`.
EDGE_PROFILE: Dict[str, Any] = {
    "memory_budget_bytes": 64 * 1024,
    "morsel_size": 2048,
    "num_partitions": 8,
}


def generate_sensor(
    scale_factor: float = 0.01, seed: int = 13
) -> Dict[str, Dict[str, np.ndarray]]:
    """Generate the sensor tables as ``{table: {column: array}}``.

    0.01 yields ~2 000 readings over 4 devices; 1.0 yields ~200 000 over
    ~40 devices. ``r_tick`` is unique and strictly increasing per device.
    """
    rng = np.random.default_rng(seed)
    num_devices = max(4, int(40 * scale_factor))
    per_device = max(250, int(200_000 * scale_factor) // num_devices)

    device_ids = np.arange(1, num_devices + 1)
    data: Dict[str, Dict[str, np.ndarray]] = {}
    data["devices"] = {
        "v_device": device_ids,
        "v_site": np.array(SITES, dtype=object)[
            rng.integers(0, len(SITES), num_devices)
        ],
        "v_model": np.array(MODELS, dtype=object)[
            rng.integers(0, len(MODELS), num_devices)
        ],
    }

    r_device = np.repeat(device_ids, per_device)
    # Strictly increasing unique ticks per device: cumulative random gaps.
    gaps = rng.integers(1, 9, num_devices * per_device)
    ticks = gaps.reshape(num_devices, per_device).cumsum(axis=1).reshape(-1)
    # Temperature: per-device random walk around a device-specific base.
    base = rng.uniform(12.0, 30.0, num_devices)
    steps = rng.normal(0.0, 0.4, (num_devices, per_device))
    temp = (base[:, None] + steps.cumsum(axis=1)).reshape(-1)
    humidity = rng.uniform(20.0, 95.0, num_devices * per_device)
    battery = (
        100.0
        - np.linspace(0.0, 35.0, per_device)[None, :]
        - rng.uniform(0.0, 2.0, (num_devices, per_device))
    ).reshape(-1)
    signal = rng.integers(-90, -30, num_devices * per_device)
    data["readings"] = {
        "r_device": r_device,
        "r_tick": ticks.astype(np.int64),
        "r_temp": np.round(temp, 3),
        "r_humidity": np.round(humidity, 3),
        "r_battery": np.round(battery, 3),
        "r_signal": signal.astype(np.int64),
    }
    return data


def populate_sensor(db, scale_factor: float = 0.01, seed: int = 13) -> None:
    """Create and fill the sensor schema in a Database (or bare Catalog)."""
    catalog: Catalog = db.catalog if hasattr(db, "catalog") else db
    data = generate_sensor(scale_factor, seed)
    for name, schema in SENSOR_SCHEMAS.items():
        table = catalog.create_table(name, schema)
        table.insert_arrays(data[name])


#: The window-dominant family. ``(r_device, r_tick)`` is a key, so every
#: OVER clause below is totally ordered within its partition and all
#: answers are deterministic.
SENSOR_QUERIES: Dict[str, str] = {
    "se1_lag_delta": """
        SELECT r_device, r_tick,
               r_temp - lag(r_temp) OVER (PARTITION BY r_device
                                          ORDER BY r_tick) AS dtemp
        FROM readings
    """,
    "se2_moving_avg": """
        SELECT r_device, r_tick,
               avg(r_temp) OVER (PARTITION BY r_device ORDER BY r_tick
                                 ROWS BETWEEN 5 PRECEDING AND CURRENT ROW)
                   AS temp_ma6
        FROM readings
    """,
    "se3_cumulative": """
        SELECT r_device, r_tick,
               cumsum(r_signal) OVER (PARTITION BY r_device
                                      ORDER BY r_tick) AS sig_run,
               count(*) OVER (PARTITION BY r_device ORDER BY r_tick) AS n_seen
        FROM readings
    """,
    "se4_rank_battery": """
        SELECT r_device, r_tick,
               rank() OVER (PARTITION BY r_device
                            ORDER BY r_battery, r_tick) AS battery_rank,
               dense_rank() OVER (PARTITION BY r_device
                                  ORDER BY r_signal, r_tick) AS signal_rank
        FROM readings
    """,
    "se5_sliding_extrema": """
        SELECT r_device, r_tick,
               min(r_temp) OVER (PARTITION BY r_device ORDER BY r_tick
                                 ROWS BETWEEN 3 PRECEDING AND 3 FOLLOWING)
                   AS temp_lo,
               max(r_temp) OVER (PARTITION BY r_device ORDER BY r_tick
                                 ROWS BETWEEN 3 PRECEDING AND 3 FOLLOWING)
                   AS temp_hi
        FROM readings
    """,
    "se6_lead_default": """
        SELECT r_device, r_tick,
               lead(r_signal, 2, 0) OVER (PARTITION BY r_device
                                          ORDER BY r_tick) AS sig_ahead
        FROM readings
    """,
    "se7_frame_values": """
        SELECT r_device, r_tick,
               first_value(r_temp) OVER (PARTITION BY r_device
                                         ORDER BY r_tick) AS first_temp,
               last_value(r_temp) OVER (PARTITION BY r_device ORDER BY r_tick
                                        ROWS BETWEEN UNBOUNDED PRECEDING
                                        AND UNBOUNDED FOLLOWING) AS final_temp
        FROM readings
    """,
    "se8_ntile_quartiles": """
        SELECT r_device, r_tick,
               ntile(4) OVER (PARTITION BY r_device
                              ORDER BY r_temp, r_tick) AS temp_quartile
        FROM readings
    """,
    "se9_site_windows": """
        SELECT v_site, r_tick, r_device,
               row_number() OVER (PARTITION BY v_site
                                  ORDER BY r_tick, r_device) AS site_seq,
               cumsum(r_temp) OVER (PARTITION BY v_site
                                    ORDER BY r_tick, r_device) AS site_heat
        FROM readings JOIN devices ON r_device = v_device
    """,
    "se10_window_then_reagg": """
        SELECT r_device, max(hot_run) AS longest_hot_prefix_sum
        FROM (SELECT r_device,
                     cumsum(CASE WHEN r_temp > 25.0 THEN 1.0 ELSE 0.0 END)
                         OVER (PARTITION BY r_device ORDER BY r_tick)
                         AS hot_run
              FROM readings) AS t
        GROUP BY r_device
        ORDER BY r_device
    """,
    "se11_partition_median": """
        SELECT r_device, r_tick,
               median(r_humidity) OVER (PARTITION BY r_device) AS med_hum,
               r_humidity - median(r_humidity) OVER (PARTITION BY r_device)
                   AS hum_dev
        FROM readings
    """,
}
