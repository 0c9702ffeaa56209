"""Frozen statement texts of the four ledger workloads.

These are copies, not imports: a later change to ``repro.bench.corpora`` or
``repro.bench.workloads`` must not silently change what the benchmark
measures (``input_digest`` in ``input_digests.json`` covers these texts and
the generated arrays). Whitespace is collapsed; the engine's plan cache
normalises it the same way.

- ``TPCH_STATS``: the paper's Table 2 (``t2_*``) and Table 3 (``t3_qNN``)
  statements, in the tie-broken variants whose window order is total.
- ``STAR_LATTICE``: the ``star_ds`` decision-support family.
- ``SENSOR_SPILL``: the ``sensor_edge`` window family.
- ``SERVICE_HOT`` / ``SERVICE_ADHOC``: the ``service_mixed`` traffic mix;
  ``{lit}`` in an ad-hoc template is replaced by a literal that never
  repeats, so every ad-hoc text misses the plan cache.
"""

_TPCH = {
    "q1": (
        "SELECT l_returnflag, l_linestatus, sum(l_quantity) AS sum_qty, "
        "sum(l_extendedprice) AS sum_base_price, sum(l_extendedprice * (1 - "
        "l_discount)) AS sum_disc_price, sum(l_extendedprice * (1 - "
        "l_discount) * (1 + l_tax)) AS sum_charge, avg(l_quantity) AS "
        "avg_qty, avg(l_extendedprice) AS avg_price, avg(l_discount) AS "
        "avg_disc, count(*) AS count_order FROM lineitem WHERE l_shipdate <= "
        "date '1998-09-02' GROUP BY l_returnflag, l_linestatus ORDER BY "
        "l_returnflag, l_linestatus"
    ),
    "q6": (
        "SELECT sum(l_extendedprice * l_discount) AS revenue FROM lineitem "
        "WHERE l_shipdate >= date '1994-01-01' AND l_shipdate < date "
        "'1995-01-01' AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < "
        "24"
    ),
}

TPCH_STATS = {
    "t2_sum_group": (
        "SELECT l_suppkey, sum(l_quantity) FROM lineitem GROUP BY l_suppkey"
    ),
    "t2_grouping_sets": (
        "SELECT l_suppkey, l_linenumber, sum(l_quantity) FROM lineitem GROUP "
        "BY GROUPING SETS ((l_suppkey, l_linenumber), (l_suppkey))"
    ),
    "t2_percentile": (
        "SELECT l_suppkey, percentile_disc(0.5) WITHIN GROUP (ORDER BY "
        "l_quantity) FROM lineitem GROUP BY l_suppkey"
    ),
    "t2_row_number": (
        "SELECT row_number() OVER (PARTITION BY l_suppkey ORDER BY "
        "l_quantity, l_orderkey, l_linenumber) AS rn FROM lineitem"
    ),
    "t3_q01": (
        "SELECT l_suppkey, sum(l_extendedprice), count(l_extendedprice), "
        "var_samp(l_extendedprice) FROM lineitem GROUP BY l_suppkey"
    ),
    "t3_q02": (
        "SELECT l_suppkey, sum(l_extendedprice), count(l_extendedprice), "
        "var_samp(l_extendedprice), percentile_disc(0.5) WITHIN GROUP (ORDER "
        "BY l_extendedprice) FROM lineitem GROUP BY l_suppkey"
    ),
    "t3_q03": (
        "SELECT l_suppkey, count(l_extendedprice), count(DISTINCT "
        "l_extendedprice) FROM lineitem GROUP BY l_suppkey"
    ),
    "t3_q04": (
        "SELECT l_suppkey, percentile_disc(0.5) WITHIN GROUP (ORDER BY "
        "l_extendedprice) FROM lineitem GROUP BY l_suppkey"
    ),
    "t3_q05": (
        "SELECT l_suppkey, percentile_disc(0.5) WITHIN GROUP (ORDER BY "
        "l_extendedprice), percentile_disc(0.99) WITHIN GROUP (ORDER BY "
        "l_extendedprice) FROM lineitem GROUP BY l_suppkey"
    ),
    "t3_q06": (
        "SELECT l_suppkey, percentile_disc(0.5) WITHIN GROUP (ORDER BY "
        "l_extendedprice), percentile_disc(0.99) WITHIN GROUP (ORDER BY "
        "l_extendedprice), percentile_disc(0.5) WITHIN GROUP (ORDER BY "
        "l_quantity), percentile_disc(0.9) WITHIN GROUP (ORDER BY l_quantity) "
        "FROM lineitem GROUP BY l_suppkey"
    ),
    "t3_q07": (
        "SELECT l_linenumber, percentile_disc(0.5) WITHIN GROUP (ORDER BY "
        "l_extendedprice), percentile_disc(0.5) WITHIN GROUP (ORDER BY "
        "l_quantity) FROM lineitem GROUP BY l_linenumber"
    ),
    "t3_q08": (
        "SELECT l_suppkey, l_linenumber, sum(l_quantity) FROM lineitem GROUP "
        "BY GROUPING SETS ((l_suppkey, l_linenumber), (l_suppkey), "
        "(l_linenumber))"
    ),
    "t3_q09": (
        "SELECT l_suppkey, l_linestatus, l_linenumber, sum(l_quantity) FROM "
        "lineitem GROUP BY GROUPING SETS ((l_suppkey, l_linestatus, "
        "l_linenumber), (l_suppkey, l_linestatus), (l_suppkey, l_linenumber), "
        "(l_linenumber))"
    ),
    "t3_q10": (
        "SELECT l_suppkey, l_linenumber, percentile_disc(0.5) WITHIN GROUP "
        "(ORDER BY l_quantity) FROM lineitem GROUP BY GROUPING SETS "
        "((l_suppkey, l_linenumber), (l_suppkey))"
    ),
    "t3_q11": (
        "SELECT l_suppkey, l_linestatus, l_linenumber, percentile_disc(0.5) "
        "WITHIN GROUP (ORDER BY l_quantity) FROM lineitem GROUP BY GROUPING "
        "SETS ((l_suppkey, l_linestatus, l_linenumber), (l_suppkey, "
        "l_linestatus), (l_suppkey))"
    ),
    "t3_q12": (
        "SELECT l_suppkey, l_linenumber, percentile_disc(0.5) WITHIN GROUP "
        "(ORDER BY l_quantity) FROM lineitem GROUP BY GROUPING SETS "
        "((l_suppkey, l_linenumber), (l_suppkey), (l_linenumber))"
    ),
    "t3_q13": (
        "SELECT lead(l_quantity) OVER (PARTITION BY l_suppkey ORDER BY "
        "l_receiptdate, l_orderkey, l_linenumber) AS w1, lag(l_quantity) OVER "
        "(PARTITION BY l_suppkey ORDER BY l_receiptdate, l_orderkey, "
        "l_linenumber) AS w2 FROM lineitem"
    ),
    "t3_q14": (
        "SELECT lead(l_quantity) OVER (PARTITION BY l_suppkey ORDER BY "
        "l_receiptdate, l_orderkey, l_linenumber) AS w1, lag(l_quantity) OVER "
        "(PARTITION BY l_suppkey ORDER BY l_receiptdate, l_orderkey, "
        "l_linenumber) AS w2, cumsum(l_quantity) OVER (PARTITION BY l_suppkey "
        "ORDER BY l_shipdate, l_orderkey, l_linenumber) AS w3 FROM lineitem"
    ),
    "t3_q15": (
        "SELECT cumsum(l_quantity) OVER (PARTITION BY l_linenumber ORDER BY "
        "l_shipdate, l_orderkey) AS w1 FROM lineitem"
    ),
    "t3_q16": (
        "SELECT l_suppkey, percentile_disc(0.5) WITHIN GROUP (ORDER BY "
        "l_extendedprice - percentile_disc(0.5) WITHIN GROUP (ORDER BY "
        "l_extendedprice)) FROM lineitem GROUP BY l_suppkey"
    ),
    "t3_q17": (
        "SELECT percentile_disc(0.5) WITHIN GROUP (ORDER BY s) AS med FROM "
        "(SELECT sum(l_quantity) AS s FROM lineitem GROUP BY l_suppkey) AS t"
    ),
    "t3_q18": (
        "SELECT l_suppkey, sum(power(lead(l_quantity) OVER (PARTITION BY "
        "l_suppkey ORDER BY l_receiptdate, l_orderkey, l_linenumber) - "
        "l_quantity, 2)) / count(*) AS mssd FROM lineitem GROUP BY l_suppkey"
    ),
}

STAR_LATTICE = {
    "ds1_rollup_region_state": (
        "WITH enriched AS ( SELECT st_region AS region, st_state AS state, "
        "s_net_price * s_quantity AS revenue FROM sales JOIN store ON "
        "s_store_id = st_store_id ) SELECT region, state, sum(revenue) AS "
        "revenue, count(*) AS n FROM enriched GROUP BY ROLLUP (region, state) "
        "ORDER BY region, state"
    ),
    "ds2_cube_category_quarter": (
        "WITH facts AS ( SELECT p_category AS category, d_quarter AS quarter, "
        "s_quantity AS qty, s_net_price AS price FROM sales JOIN product ON "
        "s_product_id = p_product_id JOIN date_dim ON s_date_id = d_date_id ) "
        "SELECT category, quarter, sum(qty) AS units, sum(price * qty) AS "
        "revenue, avg(price) AS avg_price FROM facts GROUP BY CUBE (category, "
        "quarter) ORDER BY category, quarter"
    ),
    "ds3_grouping_sets_lattice": (
        "SELECT st_region, p_category, sum(s_quantity) AS units, "
        "grouping(st_region) AS g_region, grouping(p_category) AS g_cat FROM "
        "sales JOIN store ON s_store_id = st_store_id JOIN product ON "
        "s_product_id = p_product_id GROUP BY GROUPING SETS ((st_region, "
        "p_category), (st_region), (p_category), ()) ORDER BY st_region, "
        "p_category, g_region, g_cat"
    ),
    "ds4_cte_chain_reaggregate": (
        "WITH daily AS ( SELECT s_date_id AS date_id, s_store_id AS store_id, "
        "sum(s_net_price * s_quantity) AS revenue FROM sales GROUP BY "
        "s_date_id, s_store_id ), store_totals AS ( SELECT store_id, "
        "sum(revenue) AS total, count(*) AS active_days FROM daily GROUP BY "
        "store_id ) SELECT st_region, sum(total) AS revenue, median(total) AS "
        "med_store, max(active_days) AS busiest FROM store_totals JOIN store "
        "ON store_id = st_store_id GROUP BY st_region ORDER BY st_region"
    ),
    "ds5_union_all_returns": (
        "WITH flows AS ( SELECT s_store_id AS sid, s_quantity AS qty FROM "
        "sales WHERE s_returned = 0 UNION ALL SELECT s_store_id AS sid, 0.0 - "
        "s_quantity AS qty FROM sales WHERE s_returned = 1 ) SELECT "
        "st_region, sum(qty) AS net_units, count(*) AS movements FROM flows "
        "JOIN store ON sid = st_store_id GROUP BY ROLLUP (st_region) ORDER BY "
        "st_region"
    ),
    "ds6_percentile_under_sets": (
        "SELECT p_category, d_year, percentile_disc(0.5) WITHIN GROUP (ORDER "
        "BY s_net_price) AS med_price, count(*) AS n FROM sales JOIN product "
        "ON s_product_id = p_product_id JOIN date_dim ON s_date_id = "
        "d_date_id GROUP BY GROUPING SETS ((p_category, d_year), "
        "(p_category), (d_year)) ORDER BY p_category, d_year"
    ),
    "ds7_exists_decorrelated": (
        "SELECT st_state, count(*) AS bulk_stores FROM store WHERE EXISTS "
        "(SELECT s_store_id FROM sales WHERE s_store_id = st_store_id AND "
        "s_quantity > 9) GROUP BY st_state ORDER BY st_state"
    ),
    "ds8_case_bands_rollup": (
        "WITH bucketed AS ( SELECT CASE WHEN s_discount > 0.15 THEN 'deep' "
        "WHEN s_discount > 0.05 THEN 'mid' ELSE 'low' END AS band, st_region "
        "AS region, s_net_price * s_quantity AS revenue FROM sales JOIN store "
        "ON s_store_id = st_store_id ) SELECT band, region, sum(revenue) AS "
        "revenue, count(*) AS n FROM bucketed GROUP BY ROLLUP (band, region) "
        "HAVING count(*) > 1 ORDER BY band, region"
    ),
    "ds9_median_of_store_totals": (
        "SELECT percentile_cont(0.5) WITHIN GROUP (ORDER BY total) AS "
        "med_store_revenue FROM (SELECT s_store_id, sum(s_net_price * "
        "s_quantity) AS total FROM sales GROUP BY s_store_id) AS t"
    ),
    "ds10_three_key_lattice": (
        "SELECT d_year, d_quarter, st_region, sum(s_quantity) AS units, "
        "avg(s_net_price) AS avg_price FROM sales JOIN store ON s_store_id = "
        "st_store_id JOIN date_dim ON s_date_id = d_date_id GROUP BY GROUPING "
        "SETS ((d_year, d_quarter, st_region), (d_year, d_quarter), (d_year), "
        "()) ORDER BY d_year, d_quarter, st_region"
    ),
}

SENSOR_SPILL = {
    "se1_lag_delta": (
        "SELECT r_device, r_tick, r_temp - lag(r_temp) OVER (PARTITION BY "
        "r_device ORDER BY r_tick) AS dtemp FROM readings"
    ),
    "se2_moving_avg": (
        "SELECT r_device, r_tick, avg(r_temp) OVER (PARTITION BY r_device "
        "ORDER BY r_tick ROWS BETWEEN 5 PRECEDING AND CURRENT ROW) AS "
        "temp_ma6 FROM readings"
    ),
    "se3_cumulative": (
        "SELECT r_device, r_tick, cumsum(r_signal) OVER (PARTITION BY "
        "r_device ORDER BY r_tick) AS sig_run, count(*) OVER (PARTITION BY "
        "r_device ORDER BY r_tick) AS n_seen FROM readings"
    ),
    "se4_rank_battery": (
        "SELECT r_device, r_tick, rank() OVER (PARTITION BY r_device ORDER BY "
        "r_battery, r_tick) AS battery_rank, dense_rank() OVER (PARTITION BY "
        "r_device ORDER BY r_signal, r_tick) AS signal_rank FROM readings"
    ),
    "se5_sliding_extrema": (
        "SELECT r_device, r_tick, min(r_temp) OVER (PARTITION BY r_device "
        "ORDER BY r_tick ROWS BETWEEN 3 PRECEDING AND 3 FOLLOWING) AS "
        "temp_lo, max(r_temp) OVER (PARTITION BY r_device ORDER BY r_tick "
        "ROWS BETWEEN 3 PRECEDING AND 3 FOLLOWING) AS temp_hi FROM readings"
    ),
    "se6_lead_default": (
        "SELECT r_device, r_tick, lead(r_signal, 2, 0) OVER (PARTITION BY "
        "r_device ORDER BY r_tick) AS sig_ahead FROM readings"
    ),
    "se7_frame_values": (
        "SELECT r_device, r_tick, first_value(r_temp) OVER (PARTITION BY "
        "r_device ORDER BY r_tick) AS first_temp, last_value(r_temp) OVER "
        "(PARTITION BY r_device ORDER BY r_tick ROWS BETWEEN UNBOUNDED "
        "PRECEDING AND UNBOUNDED FOLLOWING) AS final_temp FROM readings"
    ),
    "se8_ntile_quartiles": (
        "SELECT r_device, r_tick, ntile(4) OVER (PARTITION BY r_device ORDER "
        "BY r_temp, r_tick) AS temp_quartile FROM readings"
    ),
    "se9_site_windows": (
        "SELECT v_site, r_tick, r_device, row_number() OVER (PARTITION BY "
        "v_site ORDER BY r_tick, r_device) AS site_seq, cumsum(r_temp) OVER "
        "(PARTITION BY v_site ORDER BY r_tick, r_device) AS site_heat FROM "
        "readings JOIN devices ON r_device = v_device"
    ),
    "se10_window_then_reagg": (
        "SELECT r_device, max(hot_run) AS longest_hot_prefix_sum FROM (SELECT "
        "r_device, cumsum(CASE WHEN r_temp > 25.0 THEN 1.0 ELSE 0.0 END) OVER "
        "(PARTITION BY r_device ORDER BY r_tick) AS hot_run FROM readings) AS "
        "t GROUP BY r_device ORDER BY r_device"
    ),
    "se11_partition_median": (
        "SELECT r_device, r_tick, median(r_humidity) OVER (PARTITION BY "
        "r_device) AS med_hum, r_humidity - median(r_humidity) OVER "
        "(PARTITION BY r_device) AS hum_dev FROM readings"
    ),
}


SERVICE_HOT = {
    "hot_count": "SELECT count(*) FROM lineitem",
    "hot_string_groupby": (
        "SELECT l_returnflag, l_linestatus, sum(l_quantity), "
        "avg(l_extendedprice) FROM lineitem GROUP BY l_returnflag, "
        "l_linestatus"
    ),
    "hot_median": (
        "SELECT l_returnflag, median(l_extendedprice) FROM lineitem GROUP BY "
        "l_returnflag"
    ),
    "hot_orders_groupby": (
        "SELECT o_orderpriority, count(*) FROM orders GROUP BY "
        "o_orderpriority"
    ),
    "hot_tpch_q1": _TPCH["q1"],
    "hot_tpch_q6": _TPCH["q6"],
    "hot_row_number": (
        "SELECT l_orderkey, l_linenumber, row_number() OVER (PARTITION BY "
        "l_suppkey ORDER BY l_extendedprice, l_orderkey, l_linenumber) AS rn "
        "FROM lineitem"
    ),
    "hot_string_rollup": (
        "SELECT l_shipmode, l_returnflag, sum(l_quantity), count(*) FROM "
        "lineitem GROUP BY ROLLUP (l_shipmode, l_returnflag) ORDER BY "
        "l_shipmode, l_returnflag"
    ),
}

SERVICE_ADHOC = {
    "adhoc_filter_sum": (
        "SELECT count(*), sum(l_extendedprice) FROM lineitem WHERE "
        "l_orderkey < {lit}"
    ),
    "adhoc_groupby_avg": (
        "SELECT l_shipmode, avg(l_quantity) FROM lineitem WHERE l_partkey <> "
        "{lit} GROUP BY l_shipmode"
    ),
    "adhoc_orders_max": (
        "SELECT o_orderstatus, max(o_totalprice) FROM orders WHERE o_custkey "
        "<> {lit} GROUP BY o_orderstatus"
    ),
}
