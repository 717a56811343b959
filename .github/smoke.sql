SELECT COUNT(*) AS n FROM lineitem;
\tpch 6
SELECT l_returnflag, SUM(l_quantity) AS qty FROM lineitem
  GROUP BY l_returnflag ORDER BY l_returnflag;
