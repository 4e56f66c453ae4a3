package lubm

import (
	"fmt"
	"math/rand"

	"repro/internal/dllite"
)

// Sink receives generated facts. engine.DB satisfies it directly, so
// large ABoxes stream into the store without an intermediate list.
type Sink interface {
	AddConceptFact(concept, ind string)
	AddRoleFact(role, s, o string)
}

// Config parameterizes the generator.
type Config struct {
	// Universities scales the dataset (~6000 facts per university).
	Universities int
	// Seed makes generation deterministic.
	Seed int64
}

// aboxSink adapts *dllite.ABox to Sink.
type aboxSink struct{ ab *dllite.ABox }

func (s aboxSink) AddConceptFact(c, ind string) { s.ab.Add(dllite.ConceptAssertion(c, ind)) }
func (s aboxSink) AddRoleFact(r, a, b string)   { s.ab.Add(dllite.RoleAssertion(r, a, b)) }

// GenerateABox materializes a generated ABox (small scales; benchmarks
// stream into engine.DB instead).
func GenerateABox(cfg Config) *dllite.ABox {
	ab := dllite.NewABox()
	Generate(cfg, aboxSink{ab})
	return ab
}

// Generate produces a deterministic LUBM∃-style ABox in the spirit of
// the EUDG generator [23]: universities with departments, faculty,
// students, courses, publications, groups and the relations among them.
// Like EUDG, the data is deliberately incomplete — some type assertions
// are omitted when the ontology can re-derive them (e.g. a professor
// known only through advisedBy⁻, a student known only through
// takesCourse) — so plain query evaluation loses answers that
// reformulation-based query answering must recover.
func Generate(cfg Config, sink Sink) {
	if cfg.Universities <= 0 {
		cfg.Universities = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	areas := make([]string, 12)
	for i := range areas {
		areas[i] = fmt.Sprintf("Area%d", i)
		sink.AddConceptFact("ResearchArea", areas[i])
	}
	for u := 0; u < cfg.Universities; u++ {
		genUniversity(u, cfg.Universities, rng, sink, areas)
	}
}

// genCampus emits the physical-plant facts of one university.
func genCampus(univ string, sink Sink) {
	campus := univ + "_Campus"
	sink.AddConceptFact("Campus", campus)
	sink.AddRoleFact("locatedIn", univ, campus)
}

func genUniversity(u, total int, rng *rand.Rand, sink Sink, areas []string) {
	univ := fmt.Sprintf("Univ%d", u)
	sink.AddConceptFact("University", univ)
	genCampus(univ, sink)
	otherUniv := func() string {
		return fmt.Sprintf("Univ%d", rng.Intn(total))
	}
	for d := 0; d < 4; d++ {
		dept := fmt.Sprintf("%s_Dept%d", univ, d)
		sink.AddConceptFact("Department", dept)
		sink.AddRoleFact("subOrganizationOf", dept, univ)
		building := fmt.Sprintf("%s_Bldg", dept)
		sink.AddConceptFact("Building", building)
		sink.AddRoleFact("locatedIn", dept, building)
		room := fmt.Sprintf("%s_Room1", dept)
		sink.AddConceptFact("Classroom", room)

		event := fmt.Sprintf("%s_Colloquium", dept)
		sink.AddConceptFact("Colloquium", event)

		group := fmt.Sprintf("%s_Group0", dept)
		sink.AddConceptFact("ResearchGroup", group)
		sink.AddRoleFact("subOrganizationOf", group, dept)
		sink.AddRoleFact("investigates", group, areas[rng.Intn(len(areas))])

		// Courses.
		courses := make([]string, 10)
		for c := range courses {
			courses[c] = fmt.Sprintf("%s_Course%d", dept, c)
			if c < 3 {
				sink.AddConceptFact("GraduateCourse", courses[c])
			} else if rng.Float64() < 0.85 {
				// EUDG-style incompleteness: some courses are typed only
				// through offeredBy⁻ / takesCourse⁻.
				sink.AddConceptFact("UndergraduateCourse", courses[c])
			}
			sink.AddRoleFact("offeredBy", courses[c], dept)
			if rng.Float64() < 0.3 {
				sink.AddRoleFact("scheduledIn", courses[c], room)
			}
		}
		sink.AddRoleFact("prerequisiteOf", courses[0], courses[1])

		// Publications.
		pubs := make([]string, 12)
		pubTypes := []string{"JournalArticle", "ConferencePaper", "TechnicalReport",
			"WorkshopPaper", "Book", "Survey"}
		for p := range pubs {
			pubs[p] = fmt.Sprintf("%s_Pub%d", dept, p)
			if rng.Float64() < 0.9 {
				sink.AddConceptFact(pubTypes[p%len(pubTypes)], pubs[p])
			}
			if p > 0 && rng.Float64() < 0.4 {
				sink.AddRoleFact("cites", pubs[p], pubs[rng.Intn(p)])
			}
		}

		// Faculty.
		profTypes := []string{"FullProfessor", "FullProfessor",
			"AssociateProfessor", "AssociateProfessor", "AssociateProfessor",
			"AssistantProfessor", "AssistantProfessor", "AssistantProfessor"}
		profs := make([]string, len(profTypes))
		for i, pt := range profTypes {
			profs[i] = fmt.Sprintf("%s_Prof%d", dept, i)
			if rng.Float64() < 0.8 {
				// Incompleteness: untyped professors remain reachable as
				// Professors through advisedBy's range.
				sink.AddConceptFact(pt, profs[i])
			}
			sink.AddRoleFact("worksFor", profs[i], dept)
			sink.AddRoleFact("teacherOf", profs[i], courses[rng.Intn(len(courses))])
			sink.AddRoleFact("researchInterest", profs[i], areas[rng.Intn(len(areas))])
			sink.AddRoleFact("doctoralDegreeFrom", profs[i], otherUniv())
			sink.AddRoleFact("authorOf", profs[i], pubs[rng.Intn(len(pubs))])
			if rng.Float64() < 0.5 {
				sink.AddRoleFact("attends", profs[i], event)
			}
			if i > 0 && rng.Float64() < 0.6 {
				sink.AddRoleFact("collaboratesWith", profs[i], profs[rng.Intn(i)])
			}
			if rng.Float64() < 0.4 {
				sink.AddRoleFact("reviews", profs[i], pubs[rng.Intn(len(pubs))])
			}
			if rng.Float64() < 0.35 {
				sink.AddRoleFact("affiliatedWith", profs[i], group)
			}
			if i > 0 && rng.Float64() < 0.3 {
				sink.AddRoleFact("worksWith", profs[i], profs[rng.Intn(i)])
			}
		}
		sink.AddConceptFact("Chair", profs[0])
		sink.AddRoleFact("headOf", profs[0], dept)
		sink.AddRoleFact("leads", profs[1%len(profs)], group)
		sink.AddRoleFact("organizes", profs[2%len(profs)], event)

		lecturers := make([]string, 2)
		for i := range lecturers {
			lecturers[i] = fmt.Sprintf("%s_Lect%d", dept, i)
			sink.AddConceptFact("Lecturer", lecturers[i])
			sink.AddRoleFact("worksFor", lecturers[i], dept)
			sink.AddRoleFact("teacherOf", lecturers[i], courses[rng.Intn(len(courses))])
		}

		// Graduate students.
		for i := 0; i < 6; i++ {
			phd := fmt.Sprintf("%s_PhD%d", dept, i)
			if rng.Float64() < 0.8 {
				sink.AddConceptFact("PhDStudent", phd)
			}
			adv := profs[rng.Intn(len(profs))]
			sink.AddRoleFact("advisedBy", phd, adv)
			sink.AddRoleFact("memberOf", phd, dept)
			sink.AddRoleFact("takesCourse", phd, courses[rng.Intn(3)])
			sink.AddRoleFact("undergraduateDegreeFrom", phd, otherUniv())
			sink.AddRoleFact("researchInterest", phd, areas[rng.Intn(len(areas))])
			if rng.Float64() < 0.5 {
				sink.AddRoleFact("authorOf", phd, pubs[rng.Intn(len(pubs))])
			}
			if rng.Float64() < 0.4 {
				sink.AddRoleFact("teachingAssistantOf", phd, courses[3+rng.Intn(7)])
			}
			if rng.Float64() < 0.3 {
				sink.AddRoleFact("attends", phd, event)
			}
			if rng.Float64() < 0.25 {
				sink.AddRoleFact("affiliatedWith", phd, group)
			}
			if rng.Float64() < 0.2 {
				sink.AddRoleFact("enrolledIn", phd, dept+"_GradProgram")
			}
		}
		// One senior PhD student per department participates in
		// everything — guaranteeing answers for the Q1/A* star joins.
		senior := fmt.Sprintf("%s_PhD0", dept)
		sink.AddRoleFact("researchInterest", senior, areas[rng.Intn(len(areas))])
		sink.AddRoleFact("attends", senior, event)
		sink.AddRoleFact("affiliatedWith", senior, group)
		sink.AddRoleFact("organizes", senior, event)
		sink.AddRoleFact("reviews", senior, pubs[rng.Intn(len(pubs))])

		// A funded research project per department.
		proj := dept + "_Proj0"
		sink.AddConceptFact("ResearchProject", proj)
		sink.AddRoleFact("fundedBy", proj, "NSF")
		sink.AddRoleFact("contributesTo", profs[0], proj)
		for i := 0; i < 5; i++ {
			ms := fmt.Sprintf("%s_MS%d", dept, i)
			sink.AddConceptFact("MastersStudent", ms)
			sink.AddRoleFact("memberOf", ms, dept)
			sink.AddRoleFact("enrolledIn", ms, dept+"_GradProgram")
			sink.AddRoleFact("takesCourse", ms, courses[rng.Intn(len(courses))])
			sink.AddRoleFact("mastersDegreeFrom", ms, univ)
		}
		sink.AddConceptFact("GraduateProgram", dept+"_GradProgram")

		// Undergraduates.
		for i := 0; i < 20; i++ {
			ug := fmt.Sprintf("%s_UG%d", dept, i)
			if rng.Float64() < 0.75 {
				sink.AddConceptFact("UndergraduateStudent", ug)
			}
			sink.AddRoleFact("takesCourse", ug, courses[3+rng.Intn(7)])
			if rng.Float64() < 0.5 {
				sink.AddRoleFact("takesCourse", ug, courses[3+rng.Intn(7)])
			}
			sink.AddRoleFact("memberOf", ug, dept)
			if rng.Float64() < 0.2 {
				sink.AddRoleFact("enrolledIn", ug, dept+"_UGProgram")
			}
			if rng.Float64() < 0.15 {
				sink.AddRoleFact("attends", ug, event)
			}
			if rng.Float64() < 0.1 {
				tutor := profs[rng.Intn(len(profs))]
				sink.AddRoleFact("supervisedBy", ug, tutor)
			}
		}
		sink.AddConceptFact("UndergraduateProgram", dept+"_UGProgram")

		// Alumni links close the degreeFrom loop.
		sink.AddRoleFact("hasAlumnus", univ, profs[rng.Intn(len(profs))])
	}
	// A university-level award.
	award := univ + "_Award"
	sink.AddConceptFact("Fellowship", award)
	sink.AddRoleFact("awardedTo", award, fmt.Sprintf("%s_Dept0_Prof0", univ))
}
