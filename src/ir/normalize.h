// Request normalization shared by every search entry point — the
// monolithic engine, the snapshot (segments + deltas) search and the
// hand-built Table 1 engines — so all of them accept and reject exactly
// the same requests, with the same messages.
#ifndef X100IR_IR_NORMALIZE_H_
#define X100IR_IR_NORMALIZE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/string_util.h"
#include "ir/query_gen.h"

namespace x100ir::ir {

// Validates (k, query) and writes the query's terms sorted, deduplicated
// and restricted to terms some document holds. `df(t)` is the document
// frequency the caller scores under (an index's own, or a snapshot's live
// one) for any t < vocab_size. Rejects k == 0, an empty query and a term
// outside the vocabulary. In-vocabulary terms with df == 0 ("unknown"
// words) match nothing and are dropped; *any_unknown reports whether one
// was, since a conjunction containing one is empty.
template <typename DfFn>
Status NormalizeQueryTerms(const Query& query, uint32_t k,
                           uint32_t vocab_size, const DfFn& df,
                           std::vector<uint32_t>* terms, bool* any_unknown) {
  if (k == 0) {
    return InvalidArgument("k must be > 0 (no run returns zero results)");
  }
  *terms = query.terms;
  std::sort(terms->begin(), terms->end());
  terms->erase(std::unique(terms->begin(), terms->end()), terms->end());
  if (terms->empty()) return InvalidArgument("query has no terms");
  for (uint32_t t : *terms) {
    if (t >= vocab_size) {
      return InvalidArgument(StrFormat("query term %u outside vocabulary", t));
    }
  }
  const size_t before = terms->size();
  terms->erase(std::remove_if(terms->begin(), terms->end(),
                              [&df](uint32_t t) { return df(t) == 0; }),
               terms->end());
  *any_unknown = terms->size() != before;
  return OkStatus();
}

}  // namespace x100ir::ir

#endif  // X100IR_IR_NORMALIZE_H_
