#include "cartridge/text/inverted_index.h"

#include <algorithm>
#include <cstdint>

namespace exi::text {

Schema PostingTableSchema() {
  Schema schema;
  schema.AddColumn(Column{"token", DataType::Varchar(256), true});
  schema.AddColumn(Column{"block", DataType::Integer(), true});
  schema.AddColumn(Column{"df", DataType::Integer(), true});
  schema.AddColumn(Column{"postings", DataType::Blob(), true});
  return schema;
}

namespace {

size_t VarintSize(uint64_t v) {
  size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

void PutVarint(uint64_t v, std::vector<uint8_t>* out) {
  while (v >= 0x80) {
    out->push_back(uint8_t(v) | 0x80);
    v >>= 7;
  }
  out->push_back(uint8_t(v));
}

// Reads one varint at `*pos`; false if it is truncated or over 64 bits.
bool GetVarint(const std::vector<uint8_t>& in, size_t* pos, uint64_t* v) {
  *v = 0;
  for (int shift = 0; shift < 64 && *pos < in.size(); shift += 7) {
    uint8_t byte = in[(*pos)++];
    if (shift == 63 && byte > 1) return false;
    *v |= uint64_t(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return true;
  }
  return false;
}

Status CorruptBlock(const Row& row, const char* what) {
  return Status::Internal(std::string("corrupt posting block ") +
                          KeyToString(KeySpan(row).first(
                              std::min(row.size(), kPostingKeyColumns))) +
                          ": " + what);
}

// Appends `postings` to `bytes`, the first delta taken from `prev`.
void PutPostings(RowId prev, std::span<const Posting> postings,
                 std::vector<uint8_t>* bytes) {
  for (const Posting& p : postings) {
    PutVarint(p.rid - prev, bytes);
    PutVarint(uint64_t(p.freq), bytes);
    prev = p.rid;
  }
}

size_t PostingsSize(RowId prev, std::span<const Posting> postings) {
  size_t size = 0;
  for (const Posting& p : postings) {
    size += VarintSize(p.rid - prev) + VarintSize(uint64_t(p.freq));
    prev = p.rid;
  }
  return size;
}

}  // namespace

Status BlockCursor::Open() {
  if (row_.size() != 4 || row_[1].tag() != TypeTag::kInteger ||
      row_[2].tag() != TypeTag::kInteger ||
      row_[3].tag() != TypeTag::kBlob || row_[1].AsInteger() < 0) {
    return CorruptBlock(row_, "not a (token, block, df, postings) row");
  }
  bytes_ = &row_[3].AsBlob();
  base_ = RowId(row_[1].AsInteger()) * kPostingBlockRids;
  return Status::OK();
}

bool BlockCursor::Next(Status* status) {
  if (end_ >= bytes_->size()) return false;
  begin_ = end_;
  uint64_t delta;
  uint64_t freq;
  if (!GetVarint(*bytes_, &end_, &delta) ||
      !GetVarint(*bytes_, &end_, &freq)) {
    *status = CorruptBlock(row_, "truncated or overlong varint");
    return false;
  }
  if ((count_ > 0 && delta == 0) || delta >= kPostingBlockRids - offset_) {
    *status = CorruptBlock(row_, "rid outside the block or out of order");
    return false;
  }
  if (freq == 0 || freq > uint64_t(INT64_MAX)) {
    *status = CorruptBlock(row_, "freq out of range");
    return false;
  }
  offset_ += delta;
  freq_ = int64_t(freq);
  ++count_;
  return true;
}

Status BlockCursor::CheckDf() const {
  if (count_ == 0 || count_ != row_[2].AsInteger()) {
    return CorruptBlock(row_, "df differs from the postings it holds");
  }
  return Status::OK();
}

Row EncodePostingBlock(const Value& token, int64_t block,
                       std::span<const Posting> postings) {
  const RowId base = RowId(block) * kPostingBlockRids;
  std::vector<uint8_t> bytes;
  bytes.reserve(PostingsSize(base, postings));  // no spare capacity kept
  PutPostings(base, postings, &bytes);
  return {token, Value::Integer(block),
          Value::Integer(int64_t(postings.size())),
          Value::Blob(std::move(bytes))};
}

Result<std::optional<Row>> MergePostingBlock(const Row* current,
                                             const Value& token,
                                             int64_t block,
                                             std::span<const Posting> changes,
                                             bool insert) {
  const RowId base = RowId(block) * kPostingBlockRids;
  std::vector<uint8_t> out;
  RowId prev = base;  // the last rid written to `out`
  int64_t count = 0;
  // A stretch of the stored bytes not yet copied to `out`: postings whose
  // predecessor is unchanged keep their bytes.
  const uint8_t* stored = nullptr;
  size_t copy_begin = 0;
  size_t copy_end = 0;
  auto flush = [&] {
    out.insert(out.end(), stored + copy_begin, stored + copy_end);
    copy_begin = copy_end;
  };
  auto put = [&](RowId rid, int64_t freq) {
    flush();
    PutVarint(rid - prev, &out);
    PutVarint(uint64_t(freq), &out);
    prev = rid;
    ++count;
  };
  auto absent = [&](RowId rid) {
    return Status::NotFound("no posting " +
                            KeyToString(CompositeKey{
                                token, Value::Integer(block)}) +
                            " rid " + std::to_string(rid));
  };
  size_t k = 0;
  if (current != nullptr) {
    BlockCursor c(*current);
    EXI_RETURN_IF_ERROR(c.Open());
    stored = c.bytes().data();
    // A change adds at most 20 bytes, and re-encodes one delta 1 longer.
    out.reserve(c.bytes().size() + 21 * changes.size());
    RowId prev_stored = c.base();
    Status status;
    while (c.Next(&status)) {
      for (; k < changes.size() && changes[k].rid < c.rid(); ++k) {
        if (!insert) return absent(changes[k].rid);
        put(changes[k].rid, changes[k].freq);
      }
      if (k < changes.size() && changes[k].rid == c.rid()) {
        if (insert) {
          put(c.rid(), changes[k].freq);
        } else {
          flush();
        }
        ++k;
      } else if (prev == prev_stored) {
        if (copy_begin == copy_end) copy_begin = copy_end = c.begin();
        copy_end = c.end();
        prev = c.rid();
        ++count;
      } else {
        put(c.rid(), c.freq());
      }
      prev_stored = c.rid();
    }
    EXI_RETURN_IF_ERROR(status);
    EXI_RETURN_IF_ERROR(c.CheckDf());
  }
  for (; k < changes.size(); ++k) {
    if (!insert) return absent(changes[k].rid);
    put(changes[k].rid, changes[k].freq);
  }
  flush();
  if (count == 0) return std::optional<Row>();
  out.shrink_to_fit();  // a stored block keeps no spare capacity
  return std::optional<Row>(Row{token, Value::Integer(block),
                                Value::Integer(count),
                                Value::Blob(std::move(out))});
}

Status DecodePostingBlock(const Row& row,
                          FunctionRef<bool(RowId, int64_t)> visit) {
  BlockCursor c(row);
  EXI_RETURN_IF_ERROR(c.Open());
  Status status;
  while (c.Next(&status)) {
    if (!visit(c.rid(), c.freq())) return Status::OK();
  }
  EXI_RETURN_IF_ERROR(status);
  return c.CheckDf();
}

PostingSource BlockPostingSource(PostingRowScan scan) {
  return [scan = std::move(scan)](const std::string& term,
                                  const PostingVisitor& visit) -> Status {
    Status status;
    bool more = true;
    EXI_RETURN_IF_ERROR(scan({Value::Varchar(term)}, [&](const Row& row) {
      status = DecodePostingBlock(row, [&](RowId rid, int64_t freq) {
        return more = visit(rid, freq);
      });
      return status.ok() && more;
    }));
    return status;
  };
}

namespace {

// Intermediate result: rid-sorted matches.
using Matches = std::vector<TextMatch>;

// Which rids Merge keeps: those only `a` holds, those only `b` holds, and
// those both hold, with their scores summed.
enum Keep { kOnlyA = 1, kOnlyB = 2, kBoth = 4 };

// Merges two rid-sorted lists: AND keeps kBoth, OR all three, AND NOT
// kOnlyA.
Matches Merge(const Matches& a, const Matches& b, int keep) {
  Matches out;
  size_t i = 0;
  size_t j = 0;
  while ((i < a.size() && (j < b.size() || keep & kOnlyA)) ||
         (j < b.size() && (i < a.size() || keep & kOnlyB))) {
    if (j >= b.size() || (i < a.size() && a[i].rid < b[j].rid)) {
      if (keep & kOnlyA) out.push_back(a[i]);
      ++i;
    } else if (i >= a.size() || b[j].rid < a[i].rid) {
      if (keep & kOnlyB) out.push_back(b[j]);
      ++j;
    } else {
      if (keep & kBoth) out.push_back({a[i].rid, a[i].score + b[j].score});
      ++i;
      ++j;
    }
  }
  return out;
}

Result<Matches> Eval(const QueryNode& node, const PostingSource& postings,
                     const UniverseSource& universe) {
  switch (node.kind) {
    case QueryNode::Kind::kTerm: {
      Matches out;
      EXI_RETURN_IF_ERROR(
          postings(node.term, [&out](RowId rid, int64_t freq) {
            out.push_back(TextMatch{rid, freq});
            return true;
          }));
      return out;
    }
    case QueryNode::Kind::kAnd: {
      EXI_ASSIGN_OR_RETURN(Matches lhs,
                           Eval(*node.children[0], postings, universe));
      // a AND NOT b avoids materializing the universe.
      if (node.children[1]->kind == QueryNode::Kind::kNot) {
        EXI_ASSIGN_OR_RETURN(
            Matches rhs,
            Eval(*node.children[1]->children[0], postings, universe));
        return Merge(lhs, rhs, kOnlyA);
      }
      EXI_ASSIGN_OR_RETURN(Matches rhs,
                           Eval(*node.children[1], postings, universe));
      return Merge(lhs, rhs, kBoth);
    }
    case QueryNode::Kind::kOr: {
      EXI_ASSIGN_OR_RETURN(Matches lhs,
                           Eval(*node.children[0], postings, universe));
      EXI_ASSIGN_OR_RETURN(Matches rhs,
                           Eval(*node.children[1], postings, universe));
      return Merge(lhs, rhs, kOnlyA | kOnlyB | kBoth);
    }
    case QueryNode::Kind::kNot: {
      EXI_ASSIGN_OR_RETURN(Matches operand,
                           Eval(*node.children[0], postings, universe));
      std::vector<RowId> all;
      EXI_RETURN_IF_ERROR(universe(&all));
      Matches everything;
      everything.reserve(all.size());
      for (RowId rid : all) everything.push_back(TextMatch{rid, 0});
      return Merge(everything, operand, kOnlyA);
    }
  }
  return Status::Internal("unhandled text query node");
}

}  // namespace

Result<std::vector<TextMatch>> EvaluateTextQuery(
    const QueryNode& root, const PostingSource& postings,
    const UniverseSource& universe) {
  return Eval(root, postings, universe);
}

namespace {

// Evaluates `node` over `marks`, one per leaf in CollectTerms' order,
// starting at `*next`; every leaf is read, so `*next` ends past them.
bool EvalMarks(const QueryNode& node, const std::vector<char>& marks,
               size_t* next) {
  switch (node.kind) {
    case QueryNode::Kind::kTerm:
      return marks[(*next)++] != 0;
    case QueryNode::Kind::kNot:
      return !EvalMarks(*node.children[0], marks, next);
    case QueryNode::Kind::kAnd:
    case QueryNode::Kind::kOr: {
      const bool a = EvalMarks(*node.children[0], marks, next);
      const bool b = EvalMarks(*node.children[1], marks, next);
      return node.kind == QueryNode::Kind::kAnd ? a && b : a || b;
    }
  }
  return false;
}

}  // namespace

bool MatchesDocument(const QueryNode& root, const Tokenizer& tokenizer,
                     std::string_view document) {
  std::vector<std::string_view> leaves;
  root.CollectTerms(&leaves);
  std::vector<char> marks(leaves.size(), 0);
  tokenizer.ForEachToken(document, [&](std::string_view token) {
    for (size_t i = 0; i < leaves.size(); ++i) marks[i] |= leaves[i] == token;
  });
  size_t next = 0;
  return EvalMarks(root, marks, &next);
}

}  // namespace exi::text
