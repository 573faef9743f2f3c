#include "serve/server_loop.h"

#include <sstream>
#include <string>
#include <vector>

namespace irhint {
namespace serve {

namespace {

bool ReadTime(std::istringstream& in, Time* out) {
  return static_cast<bool>(in >> *out);
}

std::vector<ElementId> ReadElements(std::istringstream& in) {
  std::vector<ElementId> elements;
  ElementId element = 0;
  while (in >> element) elements.push_back(element);
  return elements;
}

void ReplyStatus(std::ostream& out, const Status& status) {
  if (status.ok()) {
    out << "OK\n";
  } else {
    out << "ERR " << status.ToString() << "\n";
  }
}

void PrintStats(const EngineStats& stats, std::ostream& out) {
  out << "stat shards " << stats.shards.size() << "\n";
  out << "stat submitted " << stats.total_submitted << "\n";
  out << "stat shed " << stats.total_shed << "\n";
  out << "stat completed " << stats.total_completed << "\n";
  out << "stat executed_queries " << stats.total_executed_queries << "\n";
  out << "stat dedup_hits " << stats.total_dedup_hits << "\n";
  out << "stat updates_applied " << stats.total_updates_applied << "\n";
  out << "stat batches " << stats.total_batches << "\n";
  out << "stat ran_on_caller " << stats.total_ran_on_caller << "\n";
  out << "stat queue_depth " << stats.max_queue_depth << "\n";
  out << "stat peak_queue_depth " << stats.max_peak_queue_depth << "\n";
}

}  // namespace

size_t RunServerLoop(ServeEngine* engine, std::istream& in,
                     std::ostream& out) {
  size_t commands = 0;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream tokens(line);
    std::string command;
    if (!(tokens >> command) || command[0] == '#') continue;
    ++commands;

    if (command == "quit" || command == "exit") {
      out << "BYE\n";
      break;
    }
    if (command == "help") {
      out << "commands: query <st> <end> [elem ...] | topk <k> <st> <end> "
             "[elem ...] | insert <st> <end> [elem ...] | erase <id> <st> "
             "<end> [elem ...] | stats | flush | help | quit\n";
      continue;
    }
    if (command == "stats") {
      PrintStats(engine->Stats(), out);
      continue;
    }
    if (command == "flush") {
      ReplyStatus(out, engine->Flush());
      continue;
    }
    if (command == "query") {
      Interval interval;
      if (!ReadTime(tokens, &interval.st) || !ReadTime(tokens, &interval.end)) {
        out << "ERR query needs <st> <end>\n";
        continue;
      }
      Query query(interval, ReadElements(tokens));
      StatusOr<std::vector<ObjectId>> result = engine->Execute(query);
      if (!result.ok()) {
        out << "ERR " << result.status().ToString() << "\n";
        continue;
      }
      out << "OK " << result->size();
      for (const ObjectId id : *result) out << " " << id;
      out << "\n";
      continue;
    }
    if (command == "topk") {
      uint32_t k = 0;
      Interval interval;
      if (!(tokens >> k) || !ReadTime(tokens, &interval.st) ||
          !ReadTime(tokens, &interval.end)) {
        out << "ERR topk needs <k> <st> <end>\n";
        continue;
      }
      Query query(interval, ReadElements(tokens));
      StatusOr<std::vector<ScoredHit>> result = engine->ExecuteTopK(query, k);
      if (!result.ok()) {
        out << "ERR " << result.status().ToString() << "\n";
        continue;
      }
      out << "OK " << result->size();
      for (const ScoredHit& hit : *result) {
        out << " " << hit.id << ":" << hit.score;
      }
      out << "\n";
      continue;
    }
    if (command == "insert") {
      Interval interval;
      if (!ReadTime(tokens, &interval.st) || !ReadTime(tokens, &interval.end)) {
        out << "ERR insert needs <st> <end>\n";
        continue;
      }
      StatusOr<ObjectId> id =
          engine->AppendInsert(interval, ReadElements(tokens));
      if (!id.ok()) {
        out << "ERR " << id.status().ToString() << "\n";
      } else {
        out << "OK id=" << *id << "\n";
      }
      continue;
    }
    if (command == "erase") {
      ObjectId id = 0;
      Interval interval;
      if (!(tokens >> id) || !ReadTime(tokens, &interval.st) ||
          !ReadTime(tokens, &interval.end)) {
        out << "ERR erase needs <id> <st> <end>\n";
        continue;
      }
      ReplyStatus(out,
                  engine->Erase(Object(id, interval, ReadElements(tokens))));
      continue;
    }
    out << "ERR unknown command '" << command << "' (try help)\n";
  }
  return commands;
}

}  // namespace serve
}  // namespace irhint
