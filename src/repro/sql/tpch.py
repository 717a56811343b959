"""The 22 TPC-H queries as SQL text for the repro.sql frontend.

Each transcription is written to produce *byte-identical* results to the
handwritten relalg implementation in :mod:`repro.analytics.queries` —
same columns, same order, same floats. That means mirroring the
handwritten operator shapes exactly: the same join nesting (expressed
through derived tables), the same arithmetic association (relalg evaluates
``a * b / c`` as ``(a * b) / c``, which SQL's left-associative ``*``/``/``
reproduce), and the same scalar fallbacks (``COALESCE(..., 0.0)`` where
the handwritten code uses ``if total else 0``). The differential suite in
``tests/test_sql_differential.py`` holds this file to that standard.

Dates use the generator's simplified 360-day calendar via ``DATE``
literals; ``DATE 'YYYY-MM-DD' + 90`` adds days directly.
"""

from __future__ import annotations

from typing import Dict

_REV = "l_extendedprice * (100 - l_discount) / 100.0"

TPCH_SQL: Dict[int, str] = {}

TPCH_SQL[1] = f"""
SELECT l_returnflag, l_linestatus,
       SUM(l_quantity) AS sum_qty,
       SUM(l_extendedprice) AS sum_base_price,
       SUM({_REV}) AS sum_disc_price,
       SUM({_REV} * (100 + l_tax) / 100.0) AS sum_charge,
       AVG(l_quantity) AS avg_qty,
       AVG(l_extendedprice) AS avg_price,
       AVG(l_discount) AS avg_disc,
       COUNT(*) AS count_order
FROM lineitem
WHERE l_shipdate <= DATE '1998-09-02'
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus
"""

_Q2_PS = """
    SELECT * FROM partsupp
    JOIN (SELECT * FROM part WHERE p_size = 15 AND p_type LIKE '%BRASS')
      ON ps_partkey = p_partkey
    JOIN (SELECT * FROM supplier
          JOIN (SELECT * FROM nation
                JOIN (SELECT * FROM region WHERE r_name = 'EUROPE')
                  ON n_regionkey = r_regionkey)
            ON s_nationkey = n_nationkey)
      ON ps_suppkey = s_suppkey
"""

TPCH_SQL[2] = f"""
SELECT s_acctbal, s_name, n_name, ps_partkey, p_mfgr, s_address, s_phone
FROM ({_Q2_PS})
JOIN (SELECT ps_partkey, MIN(ps_supplycost) AS min_cost
      FROM ({_Q2_PS}) GROUP BY ps_partkey)
  ON ps_partkey = ps_partkey
WHERE ps_supplycost = min_cost
ORDER BY s_acctbal DESC, n_name, s_name
LIMIT 100
"""

TPCH_SQL[3] = f"""
SELECT l_orderkey, o_orderdate, o_shippriority, SUM({_REV}) AS revenue
FROM lineitem
JOIN (SELECT * FROM orders
      SEMI JOIN (SELECT c_custkey FROM customer WHERE c_mktsegment = 'BUILDING')
        ON o_custkey = c_custkey
      WHERE o_orderdate < DATE '1995-03-15')
  ON l_orderkey = o_orderkey
WHERE l_shipdate > DATE '1995-03-15'
GROUP BY l_orderkey, o_orderdate, o_shippriority
ORDER BY revenue DESC, o_orderdate
LIMIT 10
"""

TPCH_SQL[4] = """
SELECT o_orderpriority, COUNT(*) AS order_count
FROM orders
SEMI JOIN (SELECT l_orderkey FROM lineitem WHERE l_commitdate < l_receiptdate)
  ON o_orderkey = l_orderkey
WHERE o_orderdate >= DATE '1993-07-01' AND o_orderdate < DATE '1993-07-01' + 90
GROUP BY o_orderpriority
ORDER BY o_orderpriority
"""

TPCH_SQL[5] = f"""
SELECT n_name, SUM({_REV}) AS revenue
FROM lineitem
JOIN (SELECT * FROM orders
      JOIN (SELECT * FROM customer
            JOIN (SELECT * FROM nation
                  JOIN (SELECT * FROM region WHERE r_name = 'ASIA')
                    ON n_regionkey = r_regionkey)
              ON c_nationkey = n_nationkey)
        ON o_custkey = c_custkey
      WHERE o_orderdate >= DATE '1994-01-01'
        AND o_orderdate < DATE '1994-01-01' + 360)
  ON l_orderkey = o_orderkey
JOIN supplier ON l_suppkey = s_suppkey
WHERE s_nationkey = c_nationkey
GROUP BY n_name
ORDER BY revenue DESC
"""

TPCH_SQL[6] = """
SELECT SUM(l_extendedprice * l_discount / 100.0) AS revenue
FROM lineitem
WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1994-01-01' + 360
  AND l_discount >= 5 AND l_discount <= 7 AND l_quantity < 24
"""

TPCH_SQL[7] = f"""
SELECT supp_nation, cust_nation, 1992 + FLOOR(l_shipdate / 360) AS l_year,
       SUM({_REV}) AS revenue
FROM (
  SELECT *, n_name AS supp_nation FROM lineitem
  JOIN supplier ON l_suppkey = s_suppkey
  JOIN (SELECT n_nationkey, n_name FROM nation) ON s_nationkey = n_nationkey
  WHERE l_shipdate >= DATE '1995-01-01' AND l_shipdate <= DATE '1996-12-30'
)
JOIN (
  SELECT * FROM orders
  JOIN customer ON o_custkey = c_custkey
  JOIN (SELECT n_nationkey AS cn_nationkey, n_name AS cust_nation FROM nation)
    ON c_nationkey = cn_nationkey
)
  ON l_orderkey = o_orderkey
WHERE (supp_nation, cust_nation) IN (('FRANCE', 'GERMANY'), ('GERMANY', 'FRANCE'))
GROUP BY supp_nation, cust_nation, l_year
ORDER BY supp_nation, cust_nation, l_year
"""

TPCH_SQL[8] = f"""
SELECT o_year, CASE WHEN total = 0 THEN 0.0 ELSE brazil_vol / total END AS mkt_share
FROM (
  SELECT o_year, SUM(volume) AS total, SUM(brazil) AS brazil_vol
  FROM (
    SELECT *, 1992 + FLOOR(o_orderdate / 360) AS o_year,
           {_REV} AS volume,
           CASE WHEN n_name = 'BRAZIL' THEN {_REV} ELSE 0.0 END AS brazil
    FROM lineitem
    SEMI JOIN (SELECT p_partkey FROM part WHERE p_type = 'ECONOMY ANODIZED STEEL')
      ON l_partkey = p_partkey
    JOIN (SELECT o_orderkey, o_orderdate FROM orders
          SEMI JOIN (SELECT c_custkey FROM customer
                     JOIN (SELECT n_nationkey FROM nation
                           JOIN (SELECT r_regionkey FROM region WHERE r_name = 'AMERICA')
                             ON n_regionkey = r_regionkey)
                       ON c_nationkey = n_nationkey)
            ON o_custkey = c_custkey
          WHERE o_orderdate >= DATE '1995-01-01' AND o_orderdate <= DATE '1996-12-30')
      ON l_orderkey = o_orderkey
    JOIN (SELECT s_suppkey, s_nationkey FROM supplier) ON l_suppkey = s_suppkey
    JOIN (SELECT n_nationkey, n_name FROM nation) ON s_nationkey = n_nationkey
  )
  GROUP BY o_year
)
ORDER BY o_year
"""

TPCH_SQL[9] = f"""
SELECT n_name, o_year, SUM(amount) AS sum_profit
FROM (
  SELECT *, 1992 + FLOOR(o_orderdate / 360) AS o_year,
         {_REV} - ps_supplycost * l_quantity / 100.0 AS amount
  FROM (
    SELECT *, (l_partkey, l_suppkey) AS ps_key FROM lineitem
    SEMI JOIN (SELECT p_partkey FROM part WHERE p_name LIKE '%green%')
      ON l_partkey = p_partkey
    JOIN (SELECT s_suppkey, s_nationkey FROM supplier) ON l_suppkey = s_suppkey
    JOIN (SELECT n_nationkey, n_name FROM nation) ON s_nationkey = n_nationkey
  )
  JOIN (SELECT ps_key, ps_supplycost
        FROM (SELECT *, (ps_partkey, ps_suppkey) AS ps_key FROM partsupp))
    ON ps_key = ps_key
  JOIN (SELECT o_orderkey, o_orderdate FROM orders) ON l_orderkey = o_orderkey
)
GROUP BY n_name, o_year
ORDER BY n_name, o_year DESC
"""

TPCH_SQL[10] = f"""
SELECT c_custkey, c_name, c_acctbal, c_phone, n_name, c_address, c_comment,
       SUM({_REV}) AS revenue
FROM lineitem
JOIN (SELECT o_orderkey, o_custkey FROM orders
      WHERE o_orderdate >= DATE '1993-10-01' AND o_orderdate < DATE '1993-10-01' + 90)
  ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
JOIN (SELECT n_nationkey, n_name FROM nation) ON c_nationkey = n_nationkey
WHERE l_returnflag = 'R'
GROUP BY c_custkey, c_name, c_acctbal, c_phone, n_name, c_address, c_comment
ORDER BY revenue DESC
LIMIT 20
"""

_Q11_PS = """
    SELECT * FROM partsupp
    SEMI JOIN (SELECT s_suppkey FROM supplier
               SEMI JOIN (SELECT n_nationkey FROM nation WHERE n_name = 'GERMANY')
                 ON s_nationkey = n_nationkey)
      ON ps_suppkey = s_suppkey
"""

TPCH_SQL[11] = f"""
SELECT ps_partkey, SUM(ps_supplycost * ps_availqty) AS value
FROM ({_Q11_PS})
GROUP BY ps_partkey
HAVING value > COALESCE((SELECT SUM(ps_supplycost * ps_availqty) AS total
                         FROM ({_Q11_PS})), 0.0) * 0.0001
ORDER BY value DESC
"""

TPCH_SQL[12] = """
SELECT l_shipmode,
       SUM(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH') THEN 1 ELSE 0 END)
         AS high_line_count,
       SUM(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH') THEN 0 ELSE 1 END)
         AS low_line_count
FROM lineitem
JOIN (SELECT o_orderkey, o_orderpriority FROM orders) ON l_orderkey = o_orderkey
WHERE l_shipmode IN ('MAIL', 'SHIP')
  AND l_commitdate < l_receiptdate AND l_shipdate < l_commitdate
  AND l_receiptdate >= DATE '1994-01-01' AND l_receiptdate < DATE '1994-01-01' + 360
GROUP BY l_shipmode
ORDER BY l_shipmode
"""

_Q13_COUNTS = """
    SELECT o_custkey, COUNT(*) AS c_count FROM orders
    WHERE o_comment NOT LIKE '%special%'
    GROUP BY o_custkey
"""

TPCH_SQL[13] = f"""
SELECT c_count, COUNT(*) AS custdist
FROM (
  SELECT c_count FROM (SELECT c_custkey FROM customer)
  JOIN ({_Q13_COUNTS}) ON c_custkey = o_custkey
  UNION ALL
  SELECT 0 AS c_count FROM (SELECT c_custkey FROM customer)
  ANTI JOIN ({_Q13_COUNTS}) ON c_custkey = o_custkey
)
GROUP BY c_count
ORDER BY custdist DESC, c_count DESC
"""

TPCH_SQL[14] = f"""
SELECT CASE WHEN total = 0 THEN 0.0 ELSE 100.0 * promo / total END AS promo_revenue
FROM (
  SELECT SUM(CASE WHEN p_type LIKE 'PROMO%' THEN {_REV} ELSE 0.0 END) AS promo,
         SUM({_REV}) AS total
  FROM lineitem
  JOIN (SELECT p_partkey, p_type FROM part) ON l_partkey = p_partkey
  WHERE l_shipdate >= DATE '1995-09-01' AND l_shipdate < DATE '1995-09-01' + 30
)
"""

_Q15_REVENUE = f"""
    SELECT l_suppkey, SUM({_REV}) AS total_revenue FROM lineitem
    WHERE l_shipdate >= DATE '1996-01-01' AND l_shipdate < DATE '1996-01-01' + 90
    GROUP BY l_suppkey
"""

TPCH_SQL[15] = f"""
SELECT l_suppkey, total_revenue, s_suppkey, s_name, s_address, s_phone
FROM ({_Q15_REVENUE}
      HAVING total_revenue = COALESCE((SELECT MAX(total_revenue) AS top
                                       FROM ({_Q15_REVENUE})), 0.0))
JOIN (SELECT s_suppkey, s_name, s_address, s_phone FROM supplier)
  ON l_suppkey = s_suppkey
ORDER BY l_suppkey
"""

TPCH_SQL[16] = """
SELECT p_brand, p_type, p_size, COUNT(*) AS supplier_cnt
FROM (
  SELECT DISTINCT p_brand, p_type, p_size, ps_suppkey
  FROM partsupp
  JOIN (SELECT * FROM part
        WHERE p_brand <> 'Brand#45' AND p_type NOT LIKE 'MEDIUM POLISHED%'
          AND p_size IN (49, 14, 23, 45, 19, 3, 36, 9))
    ON ps_partkey = p_partkey
  ANTI JOIN (SELECT s_suppkey FROM supplier
             WHERE s_comment LIKE '%Customer Complaints%')
    ON ps_suppkey = s_suppkey
)
GROUP BY p_brand, p_type, p_size
ORDER BY supplier_cnt DESC, p_brand, p_type, p_size
"""

_Q17_LI = """
    SELECT * FROM lineitem
    JOIN (SELECT p_partkey FROM part
          WHERE p_brand = 'Brand#23' AND p_container = 'MED BOX')
      ON l_partkey = p_partkey
"""

TPCH_SQL[17] = f"""
SELECT SUM(l_extendedprice / 7.0) AS avg_yearly
FROM ({_Q17_LI})
JOIN (SELECT p_partkey, AVG(l_quantity) AS avg_q FROM ({_Q17_LI}) GROUP BY p_partkey)
  ON p_partkey = p_partkey
WHERE l_quantity < 0.2 * avg_q
"""

TPCH_SQL[18] = """
SELECT c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice, sum_qty
FROM orders
JOIN (SELECT l_orderkey, SUM(l_quantity) AS sum_qty FROM lineitem
      GROUP BY l_orderkey HAVING sum_qty > 300)
  ON o_orderkey = l_orderkey
JOIN (SELECT c_custkey, c_name FROM customer) ON o_custkey = c_custkey
ORDER BY o_totalprice DESC, o_orderdate
LIMIT 100
"""

TPCH_SQL[19] = f"""
SELECT SUM({_REV}) AS revenue
FROM lineitem
JOIN (SELECT p_partkey, p_brand, p_container, p_size FROM part)
  ON l_partkey = p_partkey
WHERE l_shipmode IN ('AIR', 'REG AIR') AND l_shipinstruct = 'DELIVER IN PERSON'
  AND (p_brand = 'Brand#12' AND p_container LIKE 'SM%'
         AND l_quantity >= 1 AND l_quantity <= 11 AND p_size >= 1 AND p_size <= 5
       OR p_brand = 'Brand#23' AND p_container LIKE 'MED%'
         AND l_quantity >= 10 AND l_quantity <= 20 AND p_size >= 1 AND p_size <= 10
       OR p_brand = 'Brand#34' AND p_container LIKE 'LG%'
         AND l_quantity >= 20 AND l_quantity <= 30 AND p_size >= 1 AND p_size <= 15)
"""

TPCH_SQL[20] = """
SELECT s_name, s_address
FROM supplier
SEMI JOIN (SELECT n_nationkey FROM nation WHERE n_name = 'CANADA')
  ON s_nationkey = n_nationkey
SEMI JOIN (
  SELECT ps_suppkey FROM (
    SELECT * FROM (SELECT *, (ps_partkey, ps_suppkey) AS ps_key FROM partsupp
                   SEMI JOIN (SELECT p_partkey FROM part WHERE p_name LIKE 'forest%')
                     ON ps_partkey = p_partkey)
    JOIN (SELECT ps_key, SUM(l_quantity) AS qty
          FROM (SELECT *, (l_partkey, l_suppkey) AS ps_key FROM lineitem
                WHERE l_shipdate >= DATE '1994-01-01'
                  AND l_shipdate < DATE '1994-01-01' + 360)
          GROUP BY ps_key)
      ON ps_key = ps_key
    WHERE ps_availqty > 0.5 * qty
  )
)
  ON s_suppkey = ps_suppkey
ORDER BY s_name
"""

TPCH_SQL[21] = """
SELECT s_name, COUNT(*) AS numwait
FROM (SELECT l_orderkey, l_suppkey, l_commitdate, l_receiptdate FROM lineitem
      WHERE l_receiptdate > l_commitdate)
JOIN (SELECT s_suppkey, s_name FROM supplier
      SEMI JOIN (SELECT n_nationkey FROM nation WHERE n_name = 'SAUDI ARABIA')
        ON s_nationkey = n_nationkey)
  ON l_suppkey = s_suppkey
SEMI JOIN (SELECT o_orderkey FROM orders WHERE o_orderstatus = 'F')
  ON l_orderkey = o_orderkey
JOIN (SELECT l_orderkey, COUNT(*) AS n_supp
      FROM (SELECT DISTINCT l_orderkey, l_suppkey FROM lineitem)
      GROUP BY l_orderkey)
  ON l_orderkey = l_orderkey
JOIN (SELECT l_orderkey, COUNT(*) AS n_late
      FROM (SELECT DISTINCT l_orderkey, l_suppkey FROM lineitem
            WHERE l_receiptdate > l_commitdate)
      GROUP BY l_orderkey)
  ON l_orderkey = l_orderkey
WHERE n_supp > 1 AND n_late = 1
GROUP BY s_name
ORDER BY numwait DESC, s_name
LIMIT 100
"""

_Q22_CODES = "('13', '31', '23', '29', '30', '18', '17')"

TPCH_SQL[22] = f"""
SELECT cntrycode, COUNT(*) AS numcust, SUM(c_acctbal) AS totacctbal
FROM (
  SELECT *, SUBSTRING(c_phone, 1, 2) AS cntrycode FROM customer
  WHERE SUBSTRING(c_phone, 1, 2) IN {_Q22_CODES}
    AND c_acctbal > COALESCE((SELECT AVG(c_acctbal) AS a FROM customer
                              WHERE SUBSTRING(c_phone, 1, 2) IN {_Q22_CODES}
                                AND c_acctbal > 0), 0.0)
)
ANTI JOIN (SELECT o_custkey FROM orders) ON c_custkey = o_custkey
GROUP BY cntrycode
ORDER BY cntrycode
"""
