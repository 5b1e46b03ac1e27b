#include "lp/sparse/lu.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "support/check.hpp"

namespace rfp::lp::sparse {

namespace {

struct Entry {
  int row;
  double val;
};

[[nodiscard]] std::size_t zu(int v) noexcept { return static_cast<std::size_t>(v); }

}  // namespace

bool BasisLu::factorize(const CscMatrix& a, const std::vector<int>& basic) {
  m_ = a.rows;
  RFP_CHECK(static_cast<int>(basic.size()) == m_);
  const int m = m_;

  pivot_row_.clear();
  pivot_pos_.clear();
  diag_.clear();
  l_start_.clear();
  l_row_.clear();
  l_val_.clear();
  ft_tgt_.clear();
  ft_src_.clear();
  ft_mult_.clear();
  update_count_ = 0;
  deficient_pos_.clear();
  unpivoted_rows_.clear();
  // The old U goes before the elimination's working copy is built, and the
  // new factor structures come after that copy is gone: the factorization
  // peaks at max(working copy, factors), not their sum. At SDR scale (m ~
  // 60k, a mostly-slack basis) either side is several MiB of per-row
  // headers alone.
  u_rows_ = {};
  u_cols_ = {};

  // Transient U rows in basis-position column references; remapped to slots
  // and scattered into the dynamic row/column structures at the end.
  std::vector<int> tu_start, tu_pos;
  std::vector<double> tu_val;

  int steps = 0;
  {
    // ---- working copy of the basis matrix, column-wise ----------------------
    // Each column lists its active entries in order. Entries leave lazily:
    // a singleton pivot only tombstones (row = -1) the pivot-row entry of
    // every column it touches, so a long structural column is never
    // rewritten once per slack row it crosses (which would make
    // refactorizing a mostly-slack SDR-scale basis quadratic in the column
    // lengths: seconds at a few hundred structural columns). Columns are
    // rewritten compactly only by genuine updates (non-singleton pivots)
    // and when examined with more dead than live entries. Row patterns
    // list, per row, the columns with an entry there plus that entry's
    // index as a lookup hint; a hint outdated by a rewrite falls back to a
    // scan, and pattern entries whose entry has left are skipped as stale.
    // Entries at or below drop_tol never enter the copy.
    struct PatEntry {
      int pos;  ///< basis position (column) with an entry in this row
      int at;   ///< that entry's index in the column when recorded
    };
    std::vector<std::vector<Entry>> cols(zu(m));
    std::vector<std::vector<PatEntry>> rowpat(zu(m));
    std::vector<int> live(zu(m), 0);  ///< live (non-tombstoned) entries per column
    std::vector<int> rcount(zu(m), 0);
    for (int p = 0; p < m; ++p) {
      const int b = basic[zu(p)];
      std::vector<Entry>& col = cols[zu(p)];
      if (b >= a.cols) {
        const int r = b - a.cols;
        RFP_CHECK_MSG(r >= 0 && r < m, "basis references slack of unknown row " << r);
        col.push_back(Entry{r, 1.0});
      } else {
        RFP_CHECK_MSG(b >= 0, "basis position " << p << " is unset");
        for (int k = a.ptr[zu(b)]; k < a.ptr[zu(b) + 1]; ++k)
          if (std::abs(a.val[zu(k)]) > opt_.drop_tol)
            col.push_back(Entry{a.idx[zu(k)], a.val[zu(k)]});
      }
      for (std::size_t k = 0; k < col.size(); ++k) {
        rowpat[zu(col[k].row)].push_back(PatEntry{p, static_cast<int>(k)});
        ++rcount[zu(col[k].row)];
      }
      live[zu(p)] = static_cast<int>(col.size());
    }

    std::vector<char> row_done(zu(m), 0);
    std::vector<char> col_done(zu(m), 0);

    // Bucket queue of candidate columns by current length (sized to the
    // longest column seen, not m); entries go stale when a column's length
    // changes (it is re-pushed at the new length) and are skipped on pop.
    std::vector<std::vector<int>> bucket;
    const auto columnLen = [&](int p) { return zu(live[zu(p)]); };
    const auto enqueue = [&](int p) {
      if (bucket.size() <= columnLen(p)) bucket.resize(columnLen(p) + 1);
      bucket[columnLen(p)].push_back(p);
    };
    for (int p = 0; p < m; ++p) enqueue(p);

    // Scatter workspace for column updates.
    std::vector<double> wval(zu(m), 0.0);
    std::vector<int> wstamp(zu(m), -1);
    std::vector<int> touched;
    int epoch = 0;

    std::vector<int> popped;  // candidates taken off the buckets this step
    while (steps < m) {
      // ---- Markowitz pivot selection ---------------------------------------
      int best_row = -1, best_pos = -1;
      double best_val = 0.0;
      long best_cost = -1;
      popped.clear();
      int examined = 0;
      bool relaxed = false;  // second pass with the relative threshold dropped
      for (std::size_t c = 0; c < bucket.size();) {
        if (bucket[c].empty()) {
          ++c;
          if (c >= bucket.size() && best_pos < 0 && !relaxed && !popped.empty()) {
            // Nothing met the stability threshold; retry the popped candidates
            // accepting any pivot above the absolute floor.
            relaxed = true;
            c = 0;
            for (const int p : popped) bucket[columnLen(p)].push_back(p);
            popped.clear();
          }
          continue;
        }
        const int p = bucket[c].back();
        bucket[c].pop_back();
        if (col_done[zu(p)] || columnLen(p) != c) continue;  // stale
        if (c == 0) continue;  // structurally empty: left for the deficiency report
        popped.push_back(p);
        std::vector<Entry>& col = cols[zu(p)];
        if (col.size() > 2 * c)
          std::erase_if(col, [](const Entry& e) { return e.row < 0; });
        double colmax = 0.0;
        for (const Entry& e : col)
          if (e.row >= 0) colmax = std::max(colmax, std::abs(e.val));
        const double floor =
            std::max(opt_.abs_pivot_tol, relaxed ? 0.0 : opt_.rel_pivot_tol * colmax);
        int cand_row = -1;
        double cand_val = 0.0;
        long cand_cost = -1;
        for (const Entry& e : col) {
          if (e.row < 0 || std::abs(e.val) < floor) continue;
          const long cost =
              (static_cast<long>(c) - 1) * (static_cast<long>(rcount[zu(e.row)]) - 1);
          if (cand_row < 0 || cost < cand_cost ||
              (cost == cand_cost && std::abs(e.val) > std::abs(cand_val))) {
            cand_row = e.row;
            cand_val = e.val;
            cand_cost = cost;
          }
        }
        if (cand_row >= 0) {
          ++examined;
          if (best_pos < 0 || cand_cost < best_cost ||
              (cand_cost == best_cost && std::abs(cand_val) > std::abs(best_val))) {
            best_pos = p;
            best_row = cand_row;
            best_val = cand_val;
            best_cost = cand_cost;
          }
          if (best_cost == 0 || examined >= opt_.search_columns) break;
        }
      }
      // Unchosen candidates return to the queue for later steps.
      for (const int p : popped)
        if (p != best_pos) bucket[columnLen(p)].push_back(p);
      if (best_pos < 0) break;  // remaining submatrix is (numerically) singular

      // ---- elimination step -------------------------------------------------
      const int pi = best_row, pj = best_pos;
      const double pivval = best_val;
      row_done[zu(pi)] = 1;
      col_done[zu(pj)] = 1;
      pivot_row_.push_back(pi);
      pivot_pos_.push_back(pj);
      diag_.push_back(pivval);

      // L multipliers from the pivot column.
      const int l_first = static_cast<int>(l_row_.size());
      l_start_.push_back(l_first);
      for (const Entry& e : cols[zu(pj)]) {
        if (e.row < 0 || e.row == pi) continue;
        l_row_.push_back(e.row);
        l_val_.push_back(e.val / pivval);
        --rcount[zu(e.row)];
      }
      const int l_last = static_cast<int>(l_row_.size());
      cols[zu(pj)].clear();
      live[zu(pj)] = 0;

      // U row: remaining entries of the pivot row, with column updates.
      tu_start.push_back(static_cast<int>(tu_pos.size()));
      for (std::size_t q = 0; q < rowpat[zu(pi)].size(); ++q) {
        const PatEntry pe = rowpat[zu(pi)][q];
        const int jp = pe.pos;
        if (jp == pj || col_done[zu(jp)]) continue;
        std::vector<Entry>& col = cols[zu(jp)];
        int at = pe.at;
        if (at >= static_cast<int>(col.size()) || col[zu(at)].row != pi) {
          at = -1;
          for (std::size_t k = 0; k < col.size(); ++k)
            if (col[k].row == pi) {
              at = static_cast<int>(k);
              break;
            }
        }
        if (at < 0) continue;  // stale pattern entry (cancelled earlier)
        const double upv = col[zu(at)].val;
        tu_pos.push_back(jp);  // stores positions; remapped to slots below
        tu_val.push_back(upv);

        if (l_first == l_last) {
          // Singleton pivot: no multipliers, so the column only loses its
          // pivot-row entry.
          col[zu(at)].row = -1;
          --live[zu(jp)];
          enqueue(jp);
          continue;
        }

        // col := col - upv * (L multipliers), dropping the pivot row entry.
        ++epoch;
        touched.clear();
        for (const Entry& e : col) {
          if (e.row < 0 || e.row == pi) continue;
          wval[zu(e.row)] = e.val;
          wstamp[zu(e.row)] = epoch;
          touched.push_back(e.row);
        }
        const std::size_t first_fill = touched.size();
        for (int t = l_first; t < l_last; ++t) {
          const int r = l_row_[zu(t)];
          const double delta = l_val_[zu(t)] * upv;
          if (wstamp[zu(r)] == epoch) {
            wval[zu(r)] -= delta;
          } else {
            wstamp[zu(r)] = epoch;
            wval[zu(r)] = -delta;
            touched.push_back(r);
            ++rcount[zu(r)];
          }
        }
        col.clear();
        for (std::size_t k = 0; k < touched.size(); ++k) {
          const int r = touched[k];
          const double v = wval[zu(r)];
          const int at_new = static_cast<int>(col.size());
          if (std::abs(v) > opt_.drop_tol)
            col.push_back(Entry{r, v});
          else
            --rcount[zu(r)];  // cancelled out
          if (k >= first_fill) rowpat[zu(r)].push_back(PatEntry{jp, at_new});
        }
        live[zu(jp)] = static_cast<int>(col.size());
        enqueue(jp);
      }
      ++steps;
    }

    if (steps < m) {
      for (int p = 0; p < m; ++p)
        if (!col_done[zu(p)]) deficient_pos_.push_back(p);
      for (int r = 0; r < m; ++r)
        if (!row_done[zu(r)]) unpivoted_rows_.push_back(r);
      return false;
    }
  }  // working copy released
  work_.assign(zu(m), 0.0);
  work2_.assign(zu(m), 0.0);
  upd_val_.assign(zu(m), 0.0);
  upd_mark_.assign(zu(m), 0);
  l_start_.push_back(static_cast<int>(l_row_.size()));
  tu_start.push_back(static_cast<int>(tu_pos.size()));

  // ---- freeze the factorization into slot structures -----------------------
  // Slot k = elimination step k; the initial order is the identity.
  order_.resize(zu(m));
  order_pos_.resize(zu(m));
  pos_to_slot_.assign(zu(m), -1);
  for (int k = 0; k < m; ++k) {
    order_[zu(k)] = k;
    order_pos_[zu(k)] = k;
    pos_to_slot_[zu(pivot_pos_[zu(k)])] = k;
  }
  u_rows_.assign(zu(m), {});
  u_cols_.assign(zu(m), {});
  u_nnz_ = static_cast<long>(tu_pos.size());
  for (int k = 0; k < m; ++k) {
    for (int t = tu_start[zu(k)]; t < tu_start[zu(k) + 1]; ++t) {
      const int cslot = pos_to_slot_[zu(tu_pos[zu(t)])];
      const double v = tu_val[zu(t)];
      u_rows_[zu(k)].push_back(UEntry{cslot, v});
      u_cols_[zu(cslot)].push_back(UEntry{k, v});
    }
  }
  base_nnz_ = static_cast<long>(l_row_.size()) + u_nnz_ + m;

  // ---- hyper-sparse reachability structures --------------------------------
  // row_to_slot_ inverts pivot_row_ (a permutation once all m steps ran);
  // lt_start_/lt_slot_ transpose L's column pattern so btran can walk "which
  // elimination steps consume this row" without scanning all of L.
  row_to_slot_.assign(zu(m), -1);
  for (int k = 0; k < m; ++k) row_to_slot_[zu(pivot_row_[zu(k)])] = k;
  lt_start_.assign(zu(m) + 1, 0);
  for (const int r : l_row_) ++lt_start_[zu(r) + 1];
  for (int r = 0; r < m; ++r) lt_start_[zu(r) + 1] += lt_start_[zu(r)];
  lt_slot_.assign(l_row_.size(), 0);
  {
    std::vector<int> fill(lt_start_.begin(), lt_start_.end() - 1);
    for (int k = 0; k < m; ++k)
      for (int t = l_start_[zu(k)]; t < l_start_[zu(k) + 1]; ++t)
        lt_slot_[zu(fill[zu(l_row_[zu(t)])]++)] = k;
  }
  reach_.clear();
  reach_.reserve(zu(m));
  mark_.assign(zu(m), 0);
  ywork_.assign(zu(m), 0.0);
  return true;
}

bool BasisLu::hyperEligible(std::size_t input_nnz) const noexcept {
  return static_cast<double>(input_nnz) <=
         std::max(2.0, opt_.hyper_input_density * static_cast<double>(m_));
}

long BasisLu::reachCap() const noexcept {
  const long cap = static_cast<long>(opt_.hyper_reach_density * static_cast<double>(m_));
  return cap < 8 ? 8 : cap;
}

void BasisLu::rebuildIndex(IndexedVector& v) const {
  v.idx.clear();
  for (int p = 0; p < m_; ++p)
    if (v.val[zu(p)] != 0.0) v.idx.push_back(p);
}

void BasisLu::ftran(std::vector<double>& v, Spike* spike) const {
  const int m = m_;
  RFP_CHECK(static_cast<int>(v.size()) == m);
  // L pass in elimination order (row space).
  for (int k = 0; k < m; ++k) {
    const double piv = v[zu(pivot_row_[zu(k)])];
    if (piv == 0.0) continue;
    for (int t = l_start_[zu(k)]; t < l_start_[zu(k) + 1]; ++t)
      v[zu(l_row_[zu(t)])] -= l_val_[zu(t)] * piv;
  }
  // Rows to slots.
  std::vector<double>& y = work_;
  for (int k = 0; k < m; ++k) y[zu(k)] = v[zu(pivot_row_[zu(k)])];
  // Forrest–Tomlin row operations, oldest first.
  const std::size_t etas = ft_tgt_.size();
  for (std::size_t e = 0; e < etas; ++e)
    y[zu(ft_tgt_[e])] -= ft_mult_[e] * y[zu(ft_src_[e])];
  if (spike) {
    spike->values = y;
    spike->idx.clear();
    spike->sparse = false;
  }
  // U back-substitution over the elimination order (in place: every row's
  // off-diagonals reference slots later in the order, already finalized).
  for (int k = m - 1; k >= 0; --k) {
    const int s = order_[zu(k)];
    double acc = y[zu(s)];
    for (const UEntry& e : u_rows_[zu(s)]) acc -= e.val * y[zu(e.slot)];
    y[zu(s)] = acc / diag_[zu(s)];
  }
  // Slots to basis positions.
  for (int k = 0; k < m; ++k) v[zu(pivot_pos_[zu(k)])] = y[zu(k)];
  ++stats_.ftran_dense;
}

void BasisLu::btran(std::vector<double>& v) const {
  const int m = m_;
  RFP_CHECK(static_cast<int>(v.size()) == m);
  // Positions to slots.
  std::vector<double>& y = work_;
  for (int k = 0; k < m; ++k) y[zu(k)] = v[zu(pivot_pos_[zu(k)])];
  // U^T forward substitution over the elimination order.
  for (int k = 0; k < m; ++k) {
    const int s = order_[zu(k)];
    double acc = y[zu(s)];
    for (const UEntry& e : u_cols_[zu(s)]) acc -= e.val * y[zu(e.slot)];
    y[zu(s)] = acc / diag_[zu(s)];
  }
  // Transposed Forrest–Tomlin row operations, newest first.
  for (std::size_t e = ft_tgt_.size(); e-- > 0;)
    y[zu(ft_src_[e])] -= ft_mult_[e] * y[zu(ft_tgt_[e])];
  // Slots to rows, then the transposed L ops newest-first.
  std::vector<double>& out = work2_;
  for (int k = 0; k < m; ++k) out[zu(pivot_row_[zu(k)])] = y[zu(k)];
  for (int k = m - 1; k >= 0; --k) {
    double s = 0.0;
    for (int t = l_start_[zu(k)]; t < l_start_[zu(k) + 1]; ++t)
      s += l_val_[zu(t)] * out[zu(l_row_[zu(t)])];
    out[zu(pivot_row_[zu(k)])] -= s;
  }
  v = out;
  ++stats_.btran_dense;
}

void BasisLu::ftranSparse(IndexedVector& v, Spike* spike) const {
  const int m = m_;
  RFP_CHECK(static_cast<int>(v.val.size()) == m);
  const long cap = reachCap();
  bool overflow = !hyperEligible(v.idx.size());
  const bool attempted = !overflow && !ftran_gate_.skip();
  overflow = overflow || !attempted;
  reach_.clear();

  // All three reachability stages run before any value moves, so an
  // overflow can still hand the untouched vector to the dense sweep.
  std::size_t n_l = 0, n_spike = 0;
  if (!overflow) {
    // Stage 1: slots reachable through L from the input rows. The result
    // support of the L pass is exactly the pivot rows of these slots.
    for (const int r : v.idx) {
      const int root = row_to_slot_[zu(r)];
      if (!mark_[zu(root)]) {
        mark_[zu(root)] = 1;
        reach_.push_back(root);
      }
    }
    std::size_t head = 0;
    while (head < reach_.size() && !overflow) {
      const int k = reach_[head++];
      for (int t = l_start_[zu(k)]; t < l_start_[zu(k) + 1]; ++t) {
        const int s = row_to_slot_[zu(l_row_[zu(t)])];
        if (!mark_[zu(s)]) {
          mark_[zu(s)] = 1;
          reach_.push_back(s);
          if (static_cast<long>(reach_.size()) > cap) {
            overflow = true;
            break;
          }
        }
      }
    }
    n_l = reach_.size();
  }
  if (!overflow) {
    // Stage 2: Forrest–Tomlin fill, oldest first (structural only).
    for (std::size_t e = 0; e < ft_tgt_.size(); ++e) {
      if (!mark_[zu(ft_src_[e])]) continue;
      const int t = ft_tgt_[e];
      if (!mark_[zu(t)]) {
        mark_[zu(t)] = 1;
        reach_.push_back(t);
      }
    }
    n_spike = reach_.size();
    if (static_cast<long>(n_spike) > cap) overflow = true;
  }
  if (!overflow) {
    // Stage 3: U back-substitution closure over the column adjacency.
    std::size_t head = 0;
    while (head < reach_.size() && !overflow) {
      const int j = reach_[head++];
      for (const UEntry& e : u_cols_[zu(j)]) {
        if (!mark_[zu(e.slot)]) {
          mark_[zu(e.slot)] = 1;
          reach_.push_back(e.slot);
          if (static_cast<long>(reach_.size()) > cap) {
            overflow = true;
            break;
          }
        }
      }
    }
  }
  if (overflow) {
    if (attempted) ftran_gate_.record(false);
    for (const int k : reach_) mark_[zu(k)] = 0;
    ftran(v.val, spike);  // counts itself as a dense solve
    rebuildIndex(v);
    return;
  }
  ftran_gate_.record(true);

  // L pass in elimination order (slot index = elimination step).
  std::sort(reach_.begin(), reach_.begin() + static_cast<std::ptrdiff_t>(n_l));
  for (std::size_t i = 0; i < n_l; ++i) {
    const int k = reach_[i];
    const double piv = v.val[zu(pivot_row_[zu(k)])];
    if (piv == 0.0) continue;
    for (int t = l_start_[zu(k)]; t < l_start_[zu(k) + 1]; ++t)
      v.val[zu(l_row_[zu(t)])] -= l_val_[zu(t)] * piv;
  }
  // Rows to slots, restoring v to all-zero (every row the L pass touched is
  // the pivot row of a reached slot).
  for (const int k : reach_) {
    const int r = pivot_row_[zu(k)];
    ywork_[zu(k)] = v.val[zu(r)];
    v.val[zu(r)] = 0.0;
  }
  v.idx.clear();
  // Forrest–Tomlin row operations, oldest first. Applied unconditionally:
  // sources outside the reach are exact zeros, so those are no-ops.
  for (std::size_t e = 0; e < ft_tgt_.size(); ++e)
    ywork_[zu(ft_tgt_[e])] -= ft_mult_[e] * ywork_[zu(ft_src_[e])];
  if (spike) {
    if (spike->values.size() != zu(m)) {
      spike->values.assign(zu(m), 0.0);
    } else if (spike->sparse) {
      for (const int k : spike->idx) spike->values[zu(k)] = 0.0;
    } else {
      std::fill(spike->values.begin(), spike->values.end(), 0.0);
    }
    spike->sparse = true;
    spike->idx.assign(reach_.begin(), reach_.begin() + static_cast<std::ptrdiff_t>(n_spike));
    for (const int k : spike->idx) spike->values[zu(k)] = ywork_[zu(k)];
  }
  // U back-substitution, descending elimination order over the reach.
  std::sort(reach_.begin(), reach_.end(), [this](int a, int b) {
    return order_pos_[zu(a)] > order_pos_[zu(b)];
  });
  for (const int s : reach_) {
    double acc = ywork_[zu(s)];
    for (const UEntry& e : u_rows_[zu(s)]) acc -= e.val * ywork_[zu(e.slot)];
    ywork_[zu(s)] = acc / diag_[zu(s)];
  }
  // Slots to basis positions; clear the slot workspace and marks.
  for (const int s : reach_) {
    mark_[zu(s)] = 0;
    const double x = ywork_[zu(s)];
    ywork_[zu(s)] = 0.0;
    if (x != 0.0) v.set(pivot_pos_[zu(s)], x);
  }
  ++stats_.ftran_sparse;
}

void BasisLu::btranSparse(IndexedVector& v) const {
  const int m = m_;
  RFP_CHECK(static_cast<int>(v.val.size()) == m);
  const long cap = reachCap();
  bool overflow = !hyperEligible(v.idx.size());
  const bool attempted = !overflow && !btran_gate_.skip();
  overflow = overflow || !attempted;
  reach_.clear();

  std::size_t n_u = 0;
  if (!overflow) {
    // Stage 1: U^T forward-substitution closure from the input slots.
    for (const int p : v.idx) {
      const int s = pos_to_slot_[zu(p)];
      if (!mark_[zu(s)]) {
        mark_[zu(s)] = 1;
        reach_.push_back(s);
      }
    }
    std::size_t head = 0;
    while (head < reach_.size() && !overflow) {
      const int r = reach_[head++];
      for (const UEntry& e : u_rows_[zu(r)]) {
        if (!mark_[zu(e.slot)]) {
          mark_[zu(e.slot)] = 1;
          reach_.push_back(e.slot);
          if (static_cast<long>(reach_.size()) > cap) {
            overflow = true;
            break;
          }
        }
      }
    }
    n_u = reach_.size();
  }
  if (!overflow) {
    // Stage 2: transposed Forrest–Tomlin fill, newest first (structural).
    for (std::size_t e = ft_tgt_.size(); e-- > 0;) {
      if (!mark_[zu(ft_tgt_[e])]) continue;
      const int s = ft_src_[e];
      if (!mark_[zu(s)]) {
        mark_[zu(s)] = 1;
        reach_.push_back(s);
      }
    }
    if (static_cast<long>(reach_.size()) > cap) overflow = true;
  }
  if (!overflow) {
    // Stage 3: transposed-L closure — slot s's pivot row feeds the pivot
    // rows of the (earlier) steps whose L column contains it.
    std::size_t head = 0;
    while (head < reach_.size() && !overflow) {
      const int s = reach_[head++];
      const int r = pivot_row_[zu(s)];
      for (int t = lt_start_[zu(r)]; t < lt_start_[zu(r) + 1]; ++t) {
        const int k = lt_slot_[zu(t)];
        if (!mark_[zu(k)]) {
          mark_[zu(k)] = 1;
          reach_.push_back(k);
          if (static_cast<long>(reach_.size()) > cap) {
            overflow = true;
            break;
          }
        }
      }
    }
  }
  if (overflow) {
    if (attempted) btran_gate_.record(false);
    for (const int k : reach_) mark_[zu(k)] = 0;
    btran(v.val);  // counts itself as a dense solve
    rebuildIndex(v);
    return;
  }
  btran_gate_.record(true);

  // Positions to slots (+= so duplicate idx entries stay harmless).
  for (const int p : v.idx) {
    ywork_[zu(pos_to_slot_[zu(p)])] += v.val[zu(p)];
    v.val[zu(p)] = 0.0;
  }
  v.idx.clear();
  // U^T forward substitution, ascending elimination order over the closure.
  std::sort(reach_.begin(), reach_.begin() + static_cast<std::ptrdiff_t>(n_u),
            [this](int a, int b) { return order_pos_[zu(a)] < order_pos_[zu(b)]; });
  for (std::size_t i = 0; i < n_u; ++i) {
    const int s = reach_[i];
    double acc = ywork_[zu(s)];
    for (const UEntry& e : u_cols_[zu(s)]) acc -= e.val * ywork_[zu(e.slot)];
    ywork_[zu(s)] = acc / diag_[zu(s)];
  }
  // Transposed Forrest–Tomlin row operations, newest first.
  for (std::size_t e = ft_tgt_.size(); e-- > 0;)
    ywork_[zu(ft_src_[e])] -= ft_mult_[e] * ywork_[zu(ft_tgt_[e])];
  // Slots to rows, then the transposed L ops descending the elimination
  // steps (a step's L rows are pivoted later, so they are already final).
  std::sort(reach_.begin(), reach_.end(), std::greater<int>());
  for (const int s : reach_) {
    mark_[zu(s)] = 0;
    v.val[zu(pivot_row_[zu(s)])] = ywork_[zu(s)];
    ywork_[zu(s)] = 0.0;
  }
  for (const int s : reach_) {
    double acc = 0.0;
    for (int t = l_start_[zu(s)]; t < l_start_[zu(s) + 1]; ++t)
      acc += l_val_[zu(t)] * v.val[zu(l_row_[zu(t)])];
    v.val[zu(pivot_row_[zu(s)])] -= acc;
  }
  for (const int s : reach_) {
    const int r = pivot_row_[zu(s)];
    if (v.val[zu(r)] != 0.0) v.idx.push_back(r);
  }
  ++stats_.btran_sparse;
}

bool BasisLu::updateColumn(int position, const Spike& spike) {
  RFP_CHECK(position >= 0 && position < m_);
  RFP_CHECK(static_cast<int>(spike.values.size()) == m_);
  const std::vector<double>& w = spike.values;
  const int t = pos_to_slot_[zu(position)];

  // Drop the old column t of U (entries (r, t) live in rows before t).
  for (const UEntry& ce : u_cols_[zu(t)]) {
    std::vector<UEntry>& row = u_rows_[zu(ce.slot)];
    for (std::size_t i = 0; i < row.size(); ++i)
      if (row[i].slot == t) {
        row[i] = row.back();
        row.pop_back();
        --u_nnz_;
        break;
      }
  }
  u_cols_[zu(t)].clear();

  // The old row t becomes a row spike at the (new) last elimination
  // position; gather it into the scatter workspace and drop it from U.
  std::priority_queue<std::pair<int, int>, std::vector<std::pair<int, int>>,
                      std::greater<>>
      heap;  // (order position, col slot)
  for (const UEntry& re : u_rows_[zu(t)]) {
    upd_val_[zu(re.slot)] = re.val;
    upd_mark_[zu(re.slot)] = 1;
    heap.emplace(order_pos_[zu(re.slot)], re.slot);
    std::vector<UEntry>& col = u_cols_[zu(re.slot)];
    for (std::size_t i = 0; i < col.size(); ++i)
      if (col[i].slot == t) {
        col[i] = col.back();
        col.pop_back();
        --u_nnz_;
        break;
      }
  }
  u_rows_[zu(t)].clear();

  // Eliminate the row spike left to right; each elimination may fill
  // columns further right (pushed lazily) and folds the source row's spike-
  // column entry into the new diagonal. The operations are recorded and
  // replayed by every later ftran/btran.
  double d = w[zu(t)];
  while (!heap.empty()) {
    const int j = heap.top().second;
    heap.pop();
    if (!upd_mark_[zu(j)]) continue;  // duplicate heap entry
    upd_mark_[zu(j)] = 0;
    const double val = upd_val_[zu(j)];
    if (std::abs(val) <= opt_.drop_tol) continue;
    const double mult = val / diag_[zu(j)];
    ft_tgt_.push_back(t);
    ft_src_.push_back(j);
    ft_mult_.push_back(mult);
    d -= mult * w[zu(j)];
    for (const UEntry& e : u_rows_[zu(j)]) {
      if (upd_mark_[zu(e.slot)]) {
        upd_val_[zu(e.slot)] -= mult * e.val;
      } else {
        upd_mark_[zu(e.slot)] = 1;
        upd_val_[zu(e.slot)] = -mult * e.val;
        heap.emplace(order_pos_[zu(e.slot)], e.slot);
      }
    }
  }

  // Stability: the new diagonal must not be dwarfed by the spike it came
  // from, or subsequent solves lose the corresponding digits. A sparse
  // spike's support list bounds both this scan and the scatter below.
  double wmax = 0.0;
  if (spike.sparse) {
    for (const int k : spike.idx) wmax = std::max(wmax, std::abs(w[zu(k)]));
  } else {
    for (int k = 0; k < m_; ++k) wmax = std::max(wmax, std::abs(w[zu(k)]));
  }
  if (std::abs(d) < std::max(opt_.abs_pivot_tol, opt_.ft_stability_tol * wmax))
    return false;  // factorization spoiled; caller refactorizes
  diag_[zu(t)] = d;

  // The spike becomes the new column t (all other slots precede t once it
  // moves to the end of the order, so every entry is above the diagonal).
  const auto scatterSpikeEntry = [&](int j) {
    if (j == t) return;
    const double v = w[zu(j)];
    if (std::abs(v) <= opt_.drop_tol) return;
    u_cols_[zu(t)].push_back(UEntry{j, v});
    u_rows_[zu(j)].push_back(UEntry{t, v});
    ++u_nnz_;
  };
  if (spike.sparse) {
    for (const int j : spike.idx) scatterSpikeEntry(j);
  } else {
    for (int j = 0; j < m_; ++j) scatterSpikeEntry(j);
  }

  // Cyclic permutation: slot t moves to the end of the elimination order.
  const int from = order_pos_[zu(t)];
  for (int k = from; k + 1 < m_; ++k) {
    order_[zu(k)] = order_[zu(k + 1)];
    order_pos_[zu(order_[zu(k)])] = k;
  }
  order_[zu(m_ - 1)] = t;
  order_pos_[zu(t)] = m_ - 1;

  ++update_count_;
  return true;
}

}  // namespace rfp::lp::sparse
