#include "tpcd/queries.hh"

#include <memory>
#include <stdexcept>

#include "tpcd/rng.hh"

namespace dss {
namespace tpcd {

using db::AggSpec;
using db::AggregateNode;
using db::ArithOp;
using db::CmpOp;
using db::Datum;
using db::ExprPtr;
using db::HashJoinNode;
using db::IndexScanNode;
using db::LogicOp;
using db::MergeJoinNode;
using db::NestedLoopJoinNode;
using db::NodePtr;
using db::ProjItem;
using db::Relation;
using db::SeqScanNode;
using db::SortNode;

using db::arith;
using db::attr;
using db::cmp;
using db::col;
using db::datumToKey;
using db::litInt;
using db::litReal;
using db::litStr;
using db::logic;

namespace {

/** Deterministic parameter picks (TPC-D substitution values). */
class ParamRng : public SplitMix64
{
  public:
    explicit ParamRng(std::uint64_t seed) : SplitMix64(seed ^ 0xabcd1234u)
    {}
};

/** 1 - l_discount style revenue expression on a projected schema. */
ExprPtr
revenueExpr(const db::Schema &s, const std::string &price,
            const std::string &disc)
{
    return arith(ArithOp::Mul, col(s, price),
                 arith(ArithOp::Sub, litReal(1.0), col(s, disc)));
}

NodePtr
idxScan(TpcdDb &d, db::RelId table, db::RelId index, std::int64_t lo,
        std::int64_t hi, ExprPtr residual)
{
    return std::make_unique<IndexScanNode>(d.catalog().relation(table),
                                           d.catalog().index(index), lo, hi,
                                           std::move(residual));
}

NodePtr
seqScan(TpcdDb &d, db::RelId table, ExprPtr pred)
{
    return std::make_unique<SeqScanNode>(d.catalog().relation(table),
                                         std::move(pred));
}

constexpr std::int64_t kMin = IndexScanNode::kMinKey;
constexpr std::int64_t kMax = IndexScanNode::kMaxKey;

} // namespace

std::string
queryName(QueryId q)
{
    std::string name = "Q";
    name += std::to_string(static_cast<int>(q));
    return name;
}

QueryClass
queryClassOf(QueryId q)
{
    switch (q) {
      case QueryId::Q1:
      case QueryId::Q4:
      case QueryId::Q6:
      case QueryId::Q15:
      case QueryId::Q16:
        return QueryClass::Sequential;
      case QueryId::Q2:
      case QueryId::Q3:
      case QueryId::Q5:
      case QueryId::Q8:
      case QueryId::Q10:
      case QueryId::Q11:
        return QueryClass::Index;
      default:
        return QueryClass::Mixed;
    }
}

Q3Params
Q3Params::fromSeed(std::uint64_t seed)
{
    ParamRng rng(seed);
    Q3Params p;
    p.segment = static_cast<int>(rng.range(0, 4));
    p.date1 = dateNum(1995, 3, static_cast<int>(rng.range(1, 31)));
    p.date2 = p.date1;
    return p;
}

Q6Params
Q6Params::fromSeed(std::uint64_t seed)
{
    ParamRng rng(seed);
    Q6Params p;
    int year = static_cast<int>(rng.range(1993, 1997));
    p.dateLo = dateNum(year, 1, 1);
    p.dateHi = dateNum(year + 1, 1, 1);
    p.discount = static_cast<double>(rng.range(2, 9)) / 100.0;
    p.quantity = static_cast<double>(rng.range(24, 25));
    return p;
}

Q12Params
Q12Params::fromSeed(std::uint64_t seed)
{
    ParamRng rng(seed);
    Q12Params p;
    p.mode1 = static_cast<int>(rng.range(0, 6));
    p.mode2 = static_cast<int>((p.mode1 + rng.range(1, 6)) % 7);
    int year = static_cast<int>(rng.range(1993, 1997));
    p.dateLo = dateNum(year, 1, 1);
    p.dateHi = dateNum(year + 1, 1, 1);
    return p;
}

NodePtr
buildQ3(TpcdDb &d, const Q3Params &p)
{
    db::Catalog &cat = d.catalog();
    const Relation &cust = cat.relation(d.customer);
    const Relation &ord = cat.relation(d.orders);
    const Relation &li = cat.relation(d.lineitem);
    const std::string seg = kMktSegments[p.segment];

    // (3) Index Scan Select on customer.mktsegment = segment.
    std::int64_t seg_key = datumToKey(Datum{seg});
    NodePtr cust_scan =
        idxScan(d, d.customer, d.idxCustomerSegment, seg_key, seg_key,
                cmp(CmpOp::Eq, col(cust.schema, "c_mktsegment"),
                    litStr(seg)));

    // (4) Index Scan Select on orders.custkey = outer, orderdate < date1.
    NodePtr ord_scan =
        idxScan(d, d.orders, d.idxOrdersCust, kMin, kMax,
                cmp(CmpOp::Lt, col(ord.schema, "o_orderdate"),
                    litInt(p.date1)));

    // Nested Loop Join (1): customer x orders on custkey.
    std::vector<ProjItem> proj1{
        {false, cust.schema.indexOf("c_custkey")},
        {true, ord.schema.indexOf("o_orderkey")},
        {true, ord.schema.indexOf("o_orderdate")},
        {true, ord.schema.indexOf("o_shippriority")},
    };
    auto nl1 = std::make_unique<NestedLoopJoinNode>(
        std::move(cust_scan), std::move(ord_scan),
        cust.schema.indexOf("c_custkey"), nullptr, proj1);
    const db::Schema &s1 = nl1->schema();

    // (5) Index Scan Select on lineitem.orderkey = outer, shipdate > date2.
    NodePtr li_scan =
        idxScan(d, d.lineitem, d.idxLineitemOrder, kMin, kMax,
                cmp(CmpOp::Gt, col(li.schema, "l_shipdate"),
                    litInt(p.date2)));

    // Nested Loop Join (2): (customer x orders) x lineitem on orderkey.
    std::vector<ProjItem> proj2{
        {false, s1.indexOf("o_orderkey")},
        {false, s1.indexOf("o_orderdate")},
        {false, s1.indexOf("o_shippriority")},
        {true, li.schema.indexOf("l_extendedprice")},
        {true, li.schema.indexOf("l_discount")},
    };
    auto nl2 = std::make_unique<NestedLoopJoinNode>(
        std::move(nl1), std::move(li_scan), s1.indexOf("o_orderkey"),
        nullptr, proj2);

    // Sort (6) on the grouping attributes, then Group + Aggregate.
    auto sort1 = std::make_unique<SortNode>(
        std::move(nl2), std::vector<std::size_t>{0, 1, 2});
    const db::Schema &s2 = sort1->schema();
    std::vector<AggSpec> aggs;
    aggs.push_back({AggSpec::Op::Sum,
                    revenueExpr(s2, "l_extendedprice", "l_discount"),
                    "revenue"});
    auto agg = std::make_unique<AggregateNode>(
        std::move(sort1), std::vector<std::size_t>{0, 1, 2},
        std::move(aggs));

    // Sort (7): revenue desc, orderdate asc.
    const db::Schema &s3 = agg->schema();
    return std::make_unique<SortNode>(
        std::move(agg),
        std::vector<std::size_t>{s3.indexOf("revenue"),
                                 s3.indexOf("o_orderdate")},
        std::vector<bool>{true, false});
}

namespace {

ExprPtr
q6Predicate(const db::Schema &s, const Q6Params &p)
{
    return db::andAll({
        cmp(CmpOp::Ge, col(s, "l_shipdate"), litInt(p.dateLo)),
        cmp(CmpOp::Lt, col(s, "l_shipdate"), litInt(p.dateHi)),
        cmp(CmpOp::Ge, col(s, "l_discount"), litReal(p.discount - 0.011)),
        cmp(CmpOp::Le, col(s, "l_discount"), litReal(p.discount + 0.011)),
        cmp(CmpOp::Lt, col(s, "l_quantity"), litReal(p.quantity)),
    });
}

NodePtr
q6Aggregate(const db::Schema &s, NodePtr scan)
{
    std::vector<AggSpec> aggs;
    aggs.push_back({AggSpec::Op::Sum,
                    arith(ArithOp::Mul, col(s, "l_extendedprice"),
                          col(s, "l_discount")),
                    "revenue"});
    return std::make_unique<AggregateNode>(
        std::move(scan), std::vector<std::size_t>{}, std::move(aggs));
}

} // namespace

NodePtr
buildQ6(TpcdDb &d, const Q6Params &p)
{
    const Relation &li = d.catalog().relation(d.lineitem);
    NodePtr scan = seqScan(d, d.lineitem, q6Predicate(li.schema, p));
    return q6Aggregate(li.schema, std::move(scan));
}

NodePtr
buildQ6Partition(TpcdDb &d, const Q6Params &p, unsigned part,
                 unsigned nparts)
{
    if (nparts == 0 || part >= nparts)
        throw std::invalid_argument("buildQ6Partition: bad partition");
    const Relation &li = d.catalog().relation(d.lineitem);
    const std::size_t nblocks = li.blocks.size();
    const std::size_t lo = nblocks * part / nparts;
    const std::size_t hi = nblocks * (part + 1) / nparts;
    auto scan = std::make_unique<SeqScanNode>(
        li, q6Predicate(li.schema, p), lo, hi);
    return q6Aggregate(li.schema, std::move(scan));
}

NodePtr
buildQ12(TpcdDb &d, const Q12Params &p)
{
    const Relation &li = d.catalog().relation(d.lineitem);
    const Relation &ord = d.catalog().relation(d.orders);
    const db::Schema &ls = li.schema;

    // (2) Sequential Scan Select on lineitem.
    ExprPtr pred = db::andAll({
        logic(LogicOp::Or,
              cmp(CmpOp::Eq, col(ls, "l_shipmode"),
                  litStr(kShipModes[p.mode1])),
              cmp(CmpOp::Eq, col(ls, "l_shipmode"),
                  litStr(kShipModes[p.mode2]))),
        cmp(CmpOp::Lt, col(ls, "l_commitdate"), col(ls, "l_receiptdate")),
        cmp(CmpOp::Lt, col(ls, "l_shipdate"), col(ls, "l_commitdate")),
        cmp(CmpOp::Ge, col(ls, "l_receiptdate"), litInt(p.dateLo)),
        cmp(CmpOp::Lt, col(ls, "l_receiptdate"), litInt(p.dateHi)),
    });
    NodePtr li_scan = seqScan(d, d.lineitem, std::move(pred));

    // Sort (1) on l_orderkey: the merge join needs a sorted input.
    auto sorted = std::make_unique<SortNode>(
        std::move(li_scan),
        std::vector<std::size_t>{ls.indexOf("l_orderkey")});

    // (1) Index Scan Select over the orders.orderkey index delivers the
    // orders stream already sorted on the merge key.
    NodePtr ord_scan =
        idxScan(d, d.orders, d.idxOrdersKey, kMin, kMax, nullptr);

    // Merge Join (1) on orderkey.
    std::vector<ProjItem> proj{
        {false, ls.indexOf("l_shipmode")},
        {true, ord.schema.indexOf("o_orderpriority")},
    };
    auto mj = std::make_unique<MergeJoinNode>(
        std::move(sorted), std::move(ord_scan), ls.indexOf("l_orderkey"),
        ord.schema.indexOf("o_orderkey"), proj);

    // Sort + Group on shipmode (paper Fig 3 / Table 1: no Aggregate).
    auto sort2 = std::make_unique<SortNode>(std::move(mj),
                                            std::vector<std::size_t>{0});
    return std::make_unique<AggregateNode>(
        std::move(sort2), std::vector<std::size_t>{0},
        std::vector<AggSpec>{});
}

NodePtr
buildQ4Nested(TpcdDb &d, std::uint64_t param_seed)
{
    // Same parameter draw as the flat Q4 (so the two are comparable).
    ParamRng rng(param_seed);
    const db::Schema &os = d.catalog().relation(d.orders).schema;
    const db::Schema &ls = d.catalog().relation(d.lineitem).schema;
    int year = static_cast<int>(rng.range(1993, 1997));
    int q = static_cast<int>(rng.range(0, 3));
    std::int32_t lo = dateNum(year, 1 + 3 * q, 1);
    std::int32_t hi = q == 3 ? dateNum(year + 1, 1, 1)
                             : dateNum(year, 4 + 3 * q, 1);

    NodePtr ord_scan = seqScan(
        d, d.orders,
        logic(LogicOp::And,
              cmp(CmpOp::Ge, col(os, "o_orderdate"), litInt(lo)),
              cmp(CmpOp::Lt, col(os, "o_orderdate"), litInt(hi))));

    // EXISTS subquery: lineitems of this order delivered late.
    NodePtr sub = idxScan(
        d, d.lineitem, d.idxLineitemOrder, kMin, kMax,
        cmp(CmpOp::Lt, col(ls, "l_commitdate"),
            col(ls, "l_receiptdate")));

    auto semi = std::make_unique<db::SemiJoinNode>(
        std::move(ord_scan), std::move(sub), os.indexOf("o_orderkey"));

    auto sort = std::make_unique<SortNode>(
        std::move(semi),
        std::vector<std::size_t>{os.indexOf("o_orderpriority")});
    std::vector<AggSpec> aggs;
    aggs.push_back({AggSpec::Op::Count, nullptr, "order_count"});
    return std::make_unique<AggregateNode>(
        std::move(sort),
        std::vector<std::size_t>{os.indexOf("o_orderpriority")},
        std::move(aggs));
}

namespace {

NodePtr
buildQ1(TpcdDb &d, ParamRng &rng)
{
    const db::Schema &s = d.catalog().relation(d.lineitem).schema;
    std::int32_t cutoff = dateNum(1998, 12, 1) -
                          static_cast<std::int32_t>(rng.range(60, 120));
    NodePtr scan = seqScan(
        d, d.lineitem,
        cmp(CmpOp::Le, col(s, "l_shipdate"), litInt(cutoff)));
    auto sort = std::make_unique<SortNode>(
        std::move(scan),
        std::vector<std::size_t>{s.indexOf("l_returnflag"),
                                 s.indexOf("l_linestatus")});
    std::vector<AggSpec> aggs;
    aggs.push_back({AggSpec::Op::Sum, col(s, "l_quantity"), "sum_qty"});
    aggs.push_back(
        {AggSpec::Op::Sum, col(s, "l_extendedprice"), "sum_base_price"});
    aggs.push_back({AggSpec::Op::Sum,
                    revenueExpr(s, "l_extendedprice", "l_discount"),
                    "sum_disc_price"});
    aggs.push_back(
        {AggSpec::Op::Sum,
         arith(ArithOp::Mul,
               revenueExpr(s, "l_extendedprice", "l_discount"),
               arith(ArithOp::Add, litReal(1.0), col(s, "l_tax"))),
         "sum_charge"});
    aggs.push_back({AggSpec::Op::Avg, col(s, "l_quantity"), "avg_qty"});
    aggs.push_back(
        {AggSpec::Op::Avg, col(s, "l_extendedprice"), "avg_price"});
    aggs.push_back({AggSpec::Op::Avg, col(s, "l_discount"), "avg_disc"});
    aggs.push_back({AggSpec::Op::Count, nullptr, "count_order"});
    return std::make_unique<AggregateNode>(
        std::move(sort),
        std::vector<std::size_t>{s.indexOf("l_returnflag"),
                                 s.indexOf("l_linestatus")},
        std::move(aggs));
}

NodePtr
buildQ2(TpcdDb &d, ParamRng &rng)
{
    const db::Schema &ps = d.catalog().relation(d.part).schema;
    const db::Schema &pss = d.catalog().relation(d.partsupp).schema;
    const db::Schema &ss = d.catalog().relation(d.supplier).schema;

    auto size = rng.range(1, 50);
    NodePtr part_scan =
        idxScan(d, d.part, d.idxPartKey, kMin, kMax,
                cmp(CmpOp::Eq, col(ps, "p_size"), litInt(size)));

    NodePtr psup_scan =
        idxScan(d, d.partsupp, d.idxPartsuppPart, kMin, kMax, nullptr);
    std::vector<ProjItem> proj1{
        {false, ps.indexOf("p_partkey")},
        {false, ps.indexOf("p_mfgr")},
        {true, pss.indexOf("ps_suppkey")},
        {true, pss.indexOf("ps_supplycost")},
    };
    auto nl1 = std::make_unique<NestedLoopJoinNode>(
        std::move(part_scan), std::move(psup_scan),
        ps.indexOf("p_partkey"), nullptr, proj1);
    const db::Schema &s1 = nl1->schema();

    NodePtr supp_scan =
        idxScan(d, d.supplier, d.idxSupplierKey, kMin, kMax, nullptr);
    std::vector<ProjItem> proj2{
        {false, s1.indexOf("p_partkey")},
        {false, s1.indexOf("p_mfgr")},
        {false, s1.indexOf("ps_supplycost")},
        {true, ss.indexOf("s_name")},
        {true, ss.indexOf("s_acctbal")},
    };
    auto nl2 = std::make_unique<NestedLoopJoinNode>(
        std::move(nl1), std::move(supp_scan), s1.indexOf("ps_suppkey"),
        nullptr, proj2);
    const db::Schema &s2 = nl2->schema();

    return std::make_unique<SortNode>(
        std::move(nl2), std::vector<std::size_t>{s2.indexOf("s_acctbal")},
        std::vector<bool>{true});
}

NodePtr
buildQ4(TpcdDb &d, ParamRng &rng)
{
    const db::Schema &s = d.catalog().relation(d.orders).schema;
    int year = static_cast<int>(rng.range(1993, 1997));
    int q = static_cast<int>(rng.range(0, 3));
    std::int32_t lo = dateNum(year, 1 + 3 * q, 1);
    std::int32_t hi = q == 3 ? dateNum(year + 1, 1, 1)
                             : dateNum(year, 4 + 3 * q, 1);
    NodePtr scan = seqScan(
        d, d.orders,
        logic(LogicOp::And,
              cmp(CmpOp::Ge, col(s, "o_orderdate"), litInt(lo)),
              cmp(CmpOp::Lt, col(s, "o_orderdate"), litInt(hi))));
    auto sort = std::make_unique<SortNode>(
        std::move(scan),
        std::vector<std::size_t>{s.indexOf("o_orderpriority")});
    std::vector<AggSpec> aggs;
    aggs.push_back({AggSpec::Op::Count, nullptr, "order_count"});
    return std::make_unique<AggregateNode>(
        std::move(sort),
        std::vector<std::size_t>{s.indexOf("o_orderpriority")},
        std::move(aggs));
}

NodePtr
buildQ5(TpcdDb &d, ParamRng &rng)
{
    const db::Schema &cs = d.catalog().relation(d.customer).schema;
    const db::Schema &os = d.catalog().relation(d.orders).schema;
    const db::Schema &ls = d.catalog().relation(d.lineitem).schema;

    // A "region" = a band of five nation keys.
    auto region = rng.range(0, 4);
    int year = static_cast<int>(rng.range(1993, 1997));

    NodePtr cust_scan = idxScan(
        d, d.customer, d.idxCustomerKey, kMin, kMax,
        logic(LogicOp::And,
              cmp(CmpOp::Ge, col(cs, "c_nationkey"), litInt(region * 5)),
              cmp(CmpOp::Lt, col(cs, "c_nationkey"),
                  litInt(region * 5 + 5))));

    NodePtr ord_scan = idxScan(
        d, d.orders, d.idxOrdersCust, kMin, kMax,
        logic(LogicOp::And,
              cmp(CmpOp::Ge, col(os, "o_orderdate"),
                  litInt(dateNum(year, 1, 1))),
              cmp(CmpOp::Lt, col(os, "o_orderdate"),
                  litInt(dateNum(year + 1, 1, 1)))));
    std::vector<ProjItem> proj1{
        {false, cs.indexOf("c_custkey")},
        {false, cs.indexOf("c_nationkey")},
        {true, os.indexOf("o_orderkey")},
    };
    auto nl1 = std::make_unique<NestedLoopJoinNode>(
        std::move(cust_scan), std::move(ord_scan),
        cs.indexOf("c_custkey"), nullptr, proj1);
    const db::Schema &s1 = nl1->schema();

    NodePtr li_scan =
        idxScan(d, d.lineitem, d.idxLineitemOrder, kMin, kMax, nullptr);
    std::vector<ProjItem> proj2{
        {false, s1.indexOf("c_nationkey")},
        {true, ls.indexOf("l_extendedprice")},
        {true, ls.indexOf("l_discount")},
    };
    auto nl2 = std::make_unique<NestedLoopJoinNode>(
        std::move(nl1), std::move(li_scan), s1.indexOf("o_orderkey"),
        nullptr, proj2);
    const db::Schema &s2 = nl2->schema();

    auto sort = std::make_unique<SortNode>(
        std::move(nl2), std::vector<std::size_t>{0});
    std::vector<AggSpec> aggs;
    aggs.push_back({AggSpec::Op::Sum,
                    revenueExpr(s2, "l_extendedprice", "l_discount"),
                    "revenue"});
    return std::make_unique<AggregateNode>(
        std::move(sort), std::vector<std::size_t>{0}, std::move(aggs));
}

NodePtr
buildQ7(TpcdDb &d, ParamRng &rng)
{
    const db::Schema &ls = d.catalog().relation(d.lineitem).schema;
    const db::Schema &os = d.catalog().relation(d.orders).schema;
    const db::Schema &ss = d.catalog().relation(d.supplier).schema;

    int year = static_cast<int>(rng.range(1995, 1996));
    NodePtr li_scan = seqScan(
        d, d.lineitem,
        logic(LogicOp::And,
              cmp(CmpOp::Ge, col(ls, "l_shipdate"),
                  litInt(dateNum(year, 1, 1))),
              cmp(CmpOp::Lt, col(ls, "l_shipdate"),
                  litInt(dateNum(year, 4, 1)))));

    NodePtr ord_scan =
        idxScan(d, d.orders, d.idxOrdersKey, kMin, kMax, nullptr);
    std::vector<ProjItem> proj1{
        {false, ls.indexOf("l_suppkey")},
        {false, ls.indexOf("l_extendedprice")},
        {false, ls.indexOf("l_discount")},
        {true, os.indexOf("o_orderdate")},
    };
    auto nl = std::make_unique<NestedLoopJoinNode>(
        std::move(li_scan), std::move(ord_scan), ls.indexOf("l_orderkey"),
        nullptr, proj1);
    const db::Schema &s1 = nl->schema();

    NodePtr supp_scan = seqScan(d, d.supplier, nullptr);
    std::vector<ProjItem> proj2{
        {true, ss.indexOf("s_nationkey")},
        {false, s1.indexOf("l_extendedprice")},
        {false, s1.indexOf("l_discount")},
    };
    return std::make_unique<HashJoinNode>(
        std::move(nl), std::move(supp_scan), s1.indexOf("l_suppkey"),
        ss.indexOf("s_suppkey"), proj2);
}

NodePtr
buildQ8(TpcdDb &d, ParamRng &rng)
{
    const db::Schema &ps = d.catalog().relation(d.part).schema;
    const db::Schema &ls = d.catalog().relation(d.lineitem).schema;
    const db::Schema &os = d.catalog().relation(d.orders).schema;

    const char *type = kMktSegments[0]; // placeholder domain
    (void)type;
    NodePtr part_scan = idxScan(
        d, d.part, d.idxPartKey, kMin, kMax,
        cmp(CmpOp::Eq, col(ps, "p_size"), litInt(rng.range(1, 50))));

    NodePtr li_scan =
        idxScan(d, d.lineitem, d.idxLineitemPart, kMin, kMax, nullptr);
    std::vector<ProjItem> proj1{
        {false, ps.indexOf("p_partkey")},
        {true, ls.indexOf("l_orderkey")},
        {true, ls.indexOf("l_extendedprice")},
        {true, ls.indexOf("l_discount")},
    };
    auto nl1 = std::make_unique<NestedLoopJoinNode>(
        std::move(part_scan), std::move(li_scan), ps.indexOf("p_partkey"),
        nullptr, proj1);
    const db::Schema &s1 = nl1->schema();

    int year = static_cast<int>(rng.range(1995, 1996));
    NodePtr ord_scan = idxScan(
        d, d.orders, d.idxOrdersKey, kMin, kMax,
        logic(LogicOp::And,
              cmp(CmpOp::Ge, col(os, "o_orderdate"),
                  litInt(dateNum(year, 1, 1))),
              cmp(CmpOp::Lt, col(os, "o_orderdate"),
                  litInt(dateNum(year + 1, 1, 1)))));
    std::vector<ProjItem> proj2{
        {false, s1.indexOf("p_partkey")},
        {false, s1.indexOf("l_extendedprice")},
        {false, s1.indexOf("l_discount")},
        {true, os.indexOf("o_orderdate")},
    };
    return std::make_unique<NestedLoopJoinNode>(
        std::move(nl1), std::move(ord_scan), s1.indexOf("l_orderkey"),
        nullptr, proj2);
}

NodePtr
buildQ9(TpcdDb &d, ParamRng &rng)
{
    const db::Schema &ls = d.catalog().relation(d.lineitem).schema;
    const db::Schema &ps = d.catalog().relation(d.part).schema;
    const db::Schema &ss = d.catalog().relation(d.supplier).schema;

    NodePtr li_scan = seqScan(
        d, d.lineitem,
        cmp(CmpOp::Gt, col(ls, "l_quantity"), litReal(25.0)));

    std::string mfgr =
        "Manufacturer#" + std::to_string(rng.range(1, 5));
    NodePtr part_scan =
        idxScan(d, d.part, d.idxPartKey, kMin, kMax,
                cmp(CmpOp::Eq, col(ps, "p_mfgr"), litStr(mfgr)));
    std::vector<ProjItem> proj1{
        {false, ls.indexOf("l_suppkey")},
        {false, ls.indexOf("l_extendedprice")},
        {false, ls.indexOf("l_discount")},
        {true, ps.indexOf("p_mfgr")},
    };
    auto nl = std::make_unique<NestedLoopJoinNode>(
        std::move(li_scan), std::move(part_scan), ls.indexOf("l_partkey"),
        nullptr, proj1);
    const db::Schema &s1 = nl->schema();

    NodePtr supp_scan = seqScan(d, d.supplier, nullptr);
    std::vector<ProjItem> proj2{
        {true, ss.indexOf("s_nationkey")},
        {false, s1.indexOf("l_extendedprice")},
        {false, s1.indexOf("l_discount")},
    };
    return std::make_unique<HashJoinNode>(
        std::move(nl), std::move(supp_scan), s1.indexOf("l_suppkey"),
        ss.indexOf("s_suppkey"), proj2);
}

NodePtr
buildQ10(TpcdDb &d, ParamRng &rng)
{
    const db::Schema &os = d.catalog().relation(d.orders).schema;
    const db::Schema &ls = d.catalog().relation(d.lineitem).schema;
    const db::Schema &cs = d.catalog().relation(d.customer).schema;

    int year = static_cast<int>(rng.range(1993, 1994));
    int q = static_cast<int>(rng.range(0, 3));
    std::int64_t lo = dateNum(year, 1 + 3 * q, 1);
    std::int64_t hi = q == 3 ? dateNum(year + 1, 1, 1)
                             : dateNum(year, 4 + 3 * q, 1);
    NodePtr ord_scan =
        idxScan(d, d.orders, d.idxOrdersDate, lo, hi - 1, nullptr);

    NodePtr li_scan = idxScan(
        d, d.lineitem, d.idxLineitemOrder, kMin, kMax,
        cmp(CmpOp::Eq, col(ls, "l_returnflag"), litStr("R")));
    std::vector<ProjItem> proj1{
        {false, os.indexOf("o_custkey")},
        {true, ls.indexOf("l_extendedprice")},
        {true, ls.indexOf("l_discount")},
    };
    auto nl1 = std::make_unique<NestedLoopJoinNode>(
        std::move(ord_scan), std::move(li_scan), os.indexOf("o_orderkey"),
        nullptr, proj1);
    const db::Schema &s1 = nl1->schema();

    NodePtr cust_scan =
        idxScan(d, d.customer, d.idxCustomerKey, kMin, kMax, nullptr);
    std::vector<ProjItem> proj2{
        {false, s1.indexOf("o_custkey")},
        {true, cs.indexOf("c_name")},
        {false, s1.indexOf("l_extendedprice")},
        {false, s1.indexOf("l_discount")},
    };
    auto nl2 = std::make_unique<NestedLoopJoinNode>(
        std::move(nl1), std::move(cust_scan), s1.indexOf("o_custkey"),
        nullptr, proj2);
    const db::Schema &s2 = nl2->schema();

    auto sort = std::make_unique<SortNode>(
        std::move(nl2), std::vector<std::size_t>{0});
    std::vector<AggSpec> aggs;
    aggs.push_back({AggSpec::Op::Sum,
                    revenueExpr(s2, "l_extendedprice", "l_discount"),
                    "revenue"});
    return std::make_unique<AggregateNode>(
        std::move(sort), std::vector<std::size_t>{0}, std::move(aggs));
}

NodePtr
buildQ11(TpcdDb &d, ParamRng &rng)
{
    const db::Schema &pss = d.catalog().relation(d.partsupp).schema;
    const db::Schema &ss = d.catalog().relation(d.supplier).schema;

    auto nationkey = rng.range(0, 24);
    NodePtr psup_scan =
        idxScan(d, d.partsupp, d.idxPartsuppPart, kMin, kMax, nullptr);
    NodePtr supp_scan = idxScan(
        d, d.supplier, d.idxSupplierKey, kMin, kMax,
        cmp(CmpOp::Eq, col(ss, "s_nationkey"), litInt(nationkey)));
    std::vector<ProjItem> proj{
        {false, pss.indexOf("ps_partkey")},
        {false, pss.indexOf("ps_availqty")},
        {false, pss.indexOf("ps_supplycost")},
    };
    auto nl = std::make_unique<NestedLoopJoinNode>(
        std::move(psup_scan), std::move(supp_scan),
        pss.indexOf("ps_suppkey"), nullptr, proj);
    const db::Schema &s1 = nl->schema();

    auto sort = std::make_unique<SortNode>(
        std::move(nl), std::vector<std::size_t>{0});
    std::vector<AggSpec> aggs;
    aggs.push_back({AggSpec::Op::Sum,
                    arith(ArithOp::Mul, col(s1, "ps_supplycost"),
                          col(s1, "ps_availqty")),
                    "value"});
    return std::make_unique<AggregateNode>(
        std::move(sort), std::vector<std::size_t>{0}, std::move(aggs));
}

NodePtr
buildQ13(TpcdDb &d, ParamRng &rng)
{
    const db::Schema &os = d.catalog().relation(d.orders).schema;
    const db::Schema &ls = d.catalog().relation(d.lineitem).schema;

    int year = static_cast<int>(rng.range(1993, 1997));
    NodePtr ord_scan = seqScan(
        d, d.orders,
        logic(LogicOp::And,
              cmp(CmpOp::Ge, col(os, "o_orderdate"),
                  litInt(dateNum(year, 1, 1))),
              cmp(CmpOp::Lt, col(os, "o_orderdate"),
                  litInt(dateNum(year, 7, 1)))));

    NodePtr li_scan = idxScan(
        d, d.lineitem, d.idxLineitemOrder, kMin, kMax,
        cmp(CmpOp::Eq, col(ls, "l_returnflag"), litStr("R")));
    std::vector<ProjItem> proj{
        {false, os.indexOf("o_orderpriority")},
        {true, ls.indexOf("l_quantity")},
    };
    auto nl = std::make_unique<NestedLoopJoinNode>(
        std::move(ord_scan), std::move(li_scan), os.indexOf("o_orderkey"),
        nullptr, proj);

    auto sort = std::make_unique<SortNode>(
        std::move(nl), std::vector<std::size_t>{0});
    std::vector<AggSpec> aggs;
    aggs.push_back({AggSpec::Op::Count, nullptr, "line_count"});
    return std::make_unique<AggregateNode>(
        std::move(sort), std::vector<std::size_t>{0}, std::move(aggs));
}

NodePtr
buildQ14(TpcdDb &d, ParamRng &rng)
{
    const db::Schema &ls = d.catalog().relation(d.lineitem).schema;

    int year = static_cast<int>(rng.range(1993, 1997));
    int month = static_cast<int>(rng.range(1, 12));
    std::int32_t lo = dateNum(year, month, 1);
    std::int32_t hi = month == 12 ? dateNum(year + 1, 1, 1)
                                  : dateNum(year, month + 1, 1);
    NodePtr li_scan = seqScan(
        d, d.lineitem,
        logic(LogicOp::And,
              cmp(CmpOp::Ge, col(ls, "l_shipdate"), litInt(lo)),
              cmp(CmpOp::Lt, col(ls, "l_shipdate"), litInt(hi))));

    const db::Schema &ps = d.catalog().relation(d.part).schema;
    NodePtr part_scan =
        idxScan(d, d.part, d.idxPartKey, kMin, kMax, nullptr);
    std::vector<ProjItem> proj{
        {false, ls.indexOf("l_extendedprice")},
        {false, ls.indexOf("l_discount")},
        {true, ps.indexOf("p_type")},
    };
    auto nl = std::make_unique<NestedLoopJoinNode>(
        std::move(li_scan), std::move(part_scan), ls.indexOf("l_partkey"),
        nullptr, proj);
    const db::Schema &s1 = nl->schema();

    std::vector<AggSpec> aggs;
    aggs.push_back({AggSpec::Op::Sum,
                    revenueExpr(s1, "l_extendedprice", "l_discount"),
                    "revenue"});
    aggs.push_back({AggSpec::Op::Count, nullptr, "line_count"});
    return std::make_unique<AggregateNode>(
        std::move(nl), std::vector<std::size_t>{}, std::move(aggs));
}

NodePtr
buildQ15(TpcdDb &d, ParamRng &rng)
{
    const db::Schema &ls = d.catalog().relation(d.lineitem).schema;
    int year = static_cast<int>(rng.range(1993, 1997));
    int q = static_cast<int>(rng.range(0, 3));
    std::int32_t lo = dateNum(year, 1 + 3 * q, 1);
    std::int32_t hi = q == 3 ? dateNum(year + 1, 1, 1)
                             : dateNum(year, 4 + 3 * q, 1);
    NodePtr scan = seqScan(
        d, d.lineitem,
        logic(LogicOp::And,
              cmp(CmpOp::Ge, col(ls, "l_shipdate"), litInt(lo)),
              cmp(CmpOp::Lt, col(ls, "l_shipdate"), litInt(hi))));
    auto sort = std::make_unique<SortNode>(
        std::move(scan),
        std::vector<std::size_t>{ls.indexOf("l_suppkey")});
    return std::make_unique<AggregateNode>(
        std::move(sort),
        std::vector<std::size_t>{ls.indexOf("l_suppkey")},
        std::vector<AggSpec>{});
}

NodePtr
buildQ16(TpcdDb &d, ParamRng &rng)
{
    const db::Schema &pss = d.catalog().relation(d.partsupp).schema;
    const db::Schema &ps = d.catalog().relation(d.part).schema;

    NodePtr psup_scan = seqScan(d, d.partsupp, nullptr);
    NodePtr part_scan = seqScan(
        d, d.part,
        cmp(CmpOp::Le, col(ps, "p_size"), litInt(rng.range(10, 30))));
    std::vector<ProjItem> proj{
        {true, ps.indexOf("p_brand")},
        {true, ps.indexOf("p_type")},
        {true, ps.indexOf("p_size")},
        {false, pss.indexOf("ps_suppkey")},
    };
    auto hj = std::make_unique<HashJoinNode>(
        std::move(psup_scan), std::move(part_scan),
        pss.indexOf("ps_partkey"), ps.indexOf("p_partkey"), proj);

    auto sort = std::make_unique<SortNode>(
        std::move(hj), std::vector<std::size_t>{0, 1, 2});
    std::vector<AggSpec> aggs;
    aggs.push_back({AggSpec::Op::Count, nullptr, "supplier_cnt"});
    return std::make_unique<AggregateNode>(
        std::move(sort), std::vector<std::size_t>{0, 1, 2},
        std::move(aggs));
}

NodePtr
buildQ17(TpcdDb &d, ParamRng &rng)
{
    const db::Schema &ps = d.catalog().relation(d.part).schema;
    const db::Schema &ls = d.catalog().relation(d.lineitem).schema;

    std::string brand = "Brand#" + std::to_string(rng.range(11, 55));
    NodePtr part_scan = seqScan(
        d, d.part, cmp(CmpOp::Eq, col(ps, "p_brand"), litStr(brand)));

    NodePtr li_scan = idxScan(
        d, d.lineitem, d.idxLineitemPart, kMin, kMax,
        cmp(CmpOp::Lt, col(ls, "l_quantity"), litReal(10.0)));
    std::vector<ProjItem> proj{
        {true, ls.indexOf("l_extendedprice")},
    };
    auto nl = std::make_unique<NestedLoopJoinNode>(
        std::move(part_scan), std::move(li_scan), ps.indexOf("p_partkey"),
        nullptr, proj);
    const db::Schema &s1 = nl->schema();

    std::vector<AggSpec> aggs;
    aggs.push_back(
        {AggSpec::Op::Sum, col(s1, "l_extendedprice"), "total_price"});
    aggs.push_back({AggSpec::Op::Count, nullptr, "line_count"});
    return std::make_unique<AggregateNode>(
        std::move(nl), std::vector<std::size_t>{}, std::move(aggs));
}

} // namespace

NodePtr
buildQuery(TpcdDb &d, QueryId q, std::uint64_t param_seed)
{
    ParamRng rng(param_seed);
    switch (q) {
      case QueryId::Q1: return buildQ1(d, rng);
      case QueryId::Q2: return buildQ2(d, rng);
      case QueryId::Q3: return buildQ3(d, Q3Params::fromSeed(param_seed));
      case QueryId::Q4: return buildQ4(d, rng);
      case QueryId::Q5: return buildQ5(d, rng);
      case QueryId::Q6: return buildQ6(d, Q6Params::fromSeed(param_seed));
      case QueryId::Q7: return buildQ7(d, rng);
      case QueryId::Q8: return buildQ8(d, rng);
      case QueryId::Q9: return buildQ9(d, rng);
      case QueryId::Q10: return buildQ10(d, rng);
      case QueryId::Q11: return buildQ11(d, rng);
      case QueryId::Q12:
        return buildQ12(d, Q12Params::fromSeed(param_seed));
      case QueryId::Q13: return buildQ13(d, rng);
      case QueryId::Q14: return buildQ14(d, rng);
      case QueryId::Q15: return buildQ15(d, rng);
      case QueryId::Q16: return buildQ16(d, rng);
      case QueryId::Q17: return buildQ17(d, rng);
    }
    throw std::invalid_argument("buildQuery: unknown query");
}

} // namespace tpcd
} // namespace dss
