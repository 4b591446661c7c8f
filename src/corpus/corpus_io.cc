#include "corpus/corpus_io.h"

#include <cstdio>

#include "index/index_io.h"
#include "util/binary_io.h"

namespace irbuf::corpus {

namespace {

constexpr uint32_t kCorpusMagic = 0x43425249;  // "IRBC".

Status WriteProfile(const WsjProfile& profile, BinaryWriter* writer) {
  IRBUF_RETURN_NOT_OK(writer->WriteU32(profile.num_docs));
  IRBUF_RETURN_NOT_OK(writer->WriteU32(profile.num_terms));
  IRBUF_RETURN_NOT_OK(writer->WriteU64(profile.total_postings));
  IRBUF_RETURN_NOT_OK(writer->WriteU32(profile.page_size));
  IRBUF_RETURN_NOT_OK(writer->WriteU32(profile.multi_page_terms));
  IRBUF_RETURN_NOT_OK(
      writer->WriteU32(static_cast<uint32_t>(profile.groups.size())));
  for (const IdfGroup& g : profile.groups) {
    IRBUF_RETURN_NOT_OK(writer->WriteString(g.name));
    IRBUF_RETURN_NOT_OK(writer->WriteDouble(g.idf_lo));
    IRBUF_RETURN_NOT_OK(writer->WriteDouble(g.idf_hi));
    IRBUF_RETURN_NOT_OK(writer->WriteU32(g.pages_lo));
    IRBUF_RETURN_NOT_OK(writer->WriteU32(g.pages_hi));
    IRBUF_RETURN_NOT_OK(writer->WriteU32(g.num_terms));
    IRBUF_RETURN_NOT_OK(writer->WriteU32(g.ft_lo));
    IRBUF_RETURN_NOT_OK(writer->WriteU32(g.ft_hi));
  }
  return Status::OK();
}

Status ReadProfile(BinaryReader* reader, WsjProfile* profile) {
  IRBUF_RETURN_NOT_OK(reader->ReadU32(&profile->num_docs));
  IRBUF_RETURN_NOT_OK(reader->ReadU32(&profile->num_terms));
  IRBUF_RETURN_NOT_OK(reader->ReadU64(&profile->total_postings));
  IRBUF_RETURN_NOT_OK(reader->ReadU32(&profile->page_size));
  IRBUF_RETURN_NOT_OK(reader->ReadU32(&profile->multi_page_terms));
  uint32_t num_groups = 0;
  IRBUF_RETURN_NOT_OK(reader->ReadU32(&num_groups));
  // A group is at least a string length, two doubles and five u32s.
  IRBUF_RETURN_NOT_OK(reader->CheckCount(num_groups, 4 + 2 * 8 + 5 * 4));
  profile->groups.resize(num_groups);
  for (IdfGroup& g : profile->groups) {
    IRBUF_RETURN_NOT_OK(reader->ReadString(&g.name));
    IRBUF_RETURN_NOT_OK(reader->ReadDouble(&g.idf_lo));
    IRBUF_RETURN_NOT_OK(reader->ReadDouble(&g.idf_hi));
    IRBUF_RETURN_NOT_OK(reader->ReadU32(&g.pages_lo));
    IRBUF_RETURN_NOT_OK(reader->ReadU32(&g.pages_hi));
    IRBUF_RETURN_NOT_OK(reader->ReadU32(&g.num_terms));
    IRBUF_RETURN_NOT_OK(reader->ReadU32(&g.ft_lo));
    IRBUF_RETURN_NOT_OK(reader->ReadU32(&g.ft_hi));
  }
  return Status::OK();
}

Status WriteTopic(const Topic& topic, BinaryWriter* writer) {
  IRBUF_RETURN_NOT_OK(writer->WriteString(topic.title));
  IRBUF_RETURN_NOT_OK(
      writer->WriteU32(static_cast<uint32_t>(topic.query.size())));
  for (const core::QueryTerm& qt : topic.query.terms()) {
    IRBUF_RETURN_NOT_OK(writer->WriteU32(qt.term));
    IRBUF_RETURN_NOT_OK(writer->WriteU32(qt.fq));
  }
  IRBUF_RETURN_NOT_OK(writer->WriteU32(
      static_cast<uint32_t>(topic.relevant_docs.size())));
  for (DocId d : topic.relevant_docs) {
    IRBUF_RETURN_NOT_OK(writer->WriteU32(d));
  }
  return Status::OK();
}

Status ReadTopic(BinaryReader* reader, Topic* topic) {
  IRBUF_RETURN_NOT_OK(reader->ReadString(&topic->title));
  uint32_t num_terms = 0;
  IRBUF_RETURN_NOT_OK(reader->ReadU32(&num_terms));
  for (uint32_t i = 0; i < num_terms; ++i) {
    uint32_t term = 0, fq = 0;
    IRBUF_RETURN_NOT_OK(reader->ReadU32(&term));
    IRBUF_RETURN_NOT_OK(reader->ReadU32(&fq));
    topic->query.AddTerm(term, fq);
  }
  uint32_t num_relevant = 0;
  IRBUF_RETURN_NOT_OK(reader->ReadU32(&num_relevant));
  IRBUF_RETURN_NOT_OK(reader->CheckCount(num_relevant, 4));
  topic->relevant_docs.resize(num_relevant);
  for (uint32_t i = 0; i < num_relevant; ++i) {
    IRBUF_RETURN_NOT_OK(reader->ReadU32(&topic->relevant_docs[i]));
  }
  return Status::OK();
}

}  // namespace

Status SaveCorpus(const SyntheticCorpus& corpus, const std::string& path) {
  Result<BinaryWriter> writer = BinaryWriter::Open(path);
  if (!writer.ok()) return writer.status();
  BinaryWriter& w = writer.value();
  IRBUF_RETURN_NOT_OK(w.WriteU32(kCorpusMagic));
  IRBUF_RETURN_NOT_OK(w.WriteU32(kCorpusFormatVersion));
  IRBUF_RETURN_NOT_OK(WriteProfile(corpus.profile(), &w));
  IRBUF_RETURN_NOT_OK(
      w.WriteU32(static_cast<uint32_t>(corpus.topics().size())));
  for (const Topic& topic : corpus.topics()) {
    IRBUF_RETURN_NOT_OK(WriteTopic(topic, &w));
  }
  IRBUF_RETURN_NOT_OK(index::WriteIndex(corpus.index(), &w));
  return w.Close();
}

Result<std::unique_ptr<SyntheticCorpus>> LoadCorpus(
    const std::string& path) {
  Result<BinaryReader> reader = BinaryReader::Open(path);
  if (!reader.ok()) return reader.status();
  BinaryReader& r = reader.value();
  uint32_t magic = 0, version = 0;
  IRBUF_RETURN_NOT_OK(r.ReadU32(&magic));
  if (magic != kCorpusMagic) {
    return Status::InvalidArgument("not an irbuf corpus file");
  }
  IRBUF_RETURN_NOT_OK(r.ReadU32(&version));
  if (version != kCorpusFormatVersion) {
    return Status::InvalidArgument("unsupported corpus format version");
  }
  WsjProfile profile;
  IRBUF_RETURN_NOT_OK(ReadProfile(&r, &profile));
  uint32_t num_topics = 0;
  IRBUF_RETURN_NOT_OK(r.ReadU32(&num_topics));
  // A topic is at least its title length, term count and relevant count.
  IRBUF_RETURN_NOT_OK(r.CheckCount(num_topics, 3 * 4));
  std::vector<Topic> topics(num_topics);
  for (Topic& topic : topics) {
    IRBUF_RETURN_NOT_OK(ReadTopic(&r, &topic));
  }
  Result<index::InvertedIndex> index = index::ReadIndex(&r);
  if (!index.ok()) return index.status();
  return std::make_unique<SyntheticCorpus>(
      std::move(index).value(), std::move(topics), std::move(profile));
}

Result<std::unique_ptr<SyntheticCorpus>> LoadOrGenerateCorpus(
    const CorpusOptions& options, const std::string& cache_path) {
  if (!cache_path.empty()) {
    Result<std::unique_ptr<SyntheticCorpus>> cached =
        LoadCorpus(cache_path);
    if (cached.ok()) return cached;
  }
  Result<std::unique_ptr<SyntheticCorpus>> generated =
      GenerateSyntheticCorpus(options);
  if (!generated.ok()) return generated;
  if (!cache_path.empty()) {
    // Best-effort: failure to cache must not fail the caller, but leave
    // no truncated file behind.
    Status saved = SaveCorpus(*generated.value(), cache_path);
    if (!saved.ok()) std::remove(cache_path.c_str());
  }
  return generated;
}

}  // namespace irbuf::corpus
